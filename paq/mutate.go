package paq

import (
	"fmt"

	"repro/internal/engine"
	"repro/internal/partition"
	"repro/internal/relation"
	"repro/internal/store"
)

// MaintStats counts the incremental partition-maintenance work a
// session has performed across all of its partitionings (see
// Session.MaintStats).
type MaintStats = partition.MaintStats

// Version returns the session's dataset version: a monotonically
// increasing counter bumped by every row mutation. Results, plans, and
// cache entries are keyed to the version they were computed at, so two
// equal versions bracket identical data.
func (s *Session) Version() uint64 {
	s.dataMu.RLock()
	defer s.dataMu.RUnlock()
	return s.rel.Version()
}

// InsertRows appends rows to the dataset and routes them into every
// warm partitioning incrementally (splitting any leaf pushed past τ) —
// no partitioning is rebuilt from scratch. The whole batch is validated
// against the schema before anything is applied, so a validation
// failure leaves the dataset unchanged. It returns the row indices
// assigned to the new rows (stable until the next Compact — use them
// with DeleteRows/UpdateRows) and the new dataset version.
//
// On a durable session (WithDurability) the batch is staged to the
// write-ahead log before it is applied and fsynced before it is
// acknowledged, so a returned nil error means the mutation survives a
// crash. The fsync happens after the dataset lock is released —
// concurrent mutations share group-commit fsync rounds and solves are
// never blocked behind a disk flush. If that fsync fails, the error is
// tagged ErrIndeterminate: the batch is already applied in memory (the
// returned version includes it) but its durability is unknown — do not
// blindly retry.
//
// Prepared statements stay valid across mutations: their next Execute
// sees the new data, and solution-cache entries for older versions stop
// matching (they are reclaimed, counted in CacheStats.Invalidations).
// Mutations and solves do not block each other: a solve pins an
// immutable relation snapshot and runs lock-free (so mutation methods
// may even be called from a WithIncumbent callback), while mutations
// take the narrow write lock only for the apply itself.
func (s *Session) InsertRows(rows [][]relation.Value) ([]int, uint64, error) {
	return s.mutate(&store.Record{Kind: store.KindInsert, Rows: rows})
}

// mutate is the one write path: under the dataset write lock the record
// is validated, staged to the write-ahead log (durable sessions) and
// applied; the fsync that makes it durable runs after the lock is
// released. The record's slices are the caller's — no row is copied —
// and its PreVersion is filled in here, under the lock. It returns the
// row indices an insert assigned and the dataset version reached.
func (s *Session) mutate(rec *store.Record) ([]int, uint64, error) {
	s.dataMu.Lock()
	rec.PreVersion = s.rel.Version()
	ids, commit, err := s.absorbLocked(rec, s.st != nil)
	v := s.rel.Version()
	s.dataMu.Unlock()
	if err != nil {
		return nil, v, err
	}
	if commit != nil {
		if err := commit(); err != nil {
			return ids, v, commitFailed(err)
		}
	}
	return ids, v, nil
}

// commitFailed wraps a write-ahead commit (fsync) failure that happened
// after the mutation was applied in memory: the outcome is
// indeterminate (see ErrIndeterminate), not a clean refusal.
func commitFailed(err error) error {
	return tag(ErrIndeterminate, fmt.Errorf("paq: write-ahead log: %w", err))
}

// absorbLocked validates the record against the dataset and applies it —
// the steps live mutations and WAL replay share. With logged set the
// record is staged to the WAL between the two (write-ahead) and the
// commit func returned; an empty batch is a no-op that stages nothing.
// Caller holds the write lock.
func (s *Session) absorbLocked(rec *store.Record, logged bool) (ids []int, commit func() error, err error) {
	validate, apply, err := s.halves(rec)
	if err == nil {
		err = validate()
	}
	if err != nil || rec.Ops() == 0 {
		return nil, nil, err
	}
	if logged {
		if commit, err = s.st.Stage(s.rel.Schema(), rec); err != nil {
			return nil, nil, fmt.Errorf("paq: write-ahead log: %w", err)
		}
	}
	if ids, err = apply(); err != nil && logged {
		// Validation makes this unreachable; if it happens anyway the WAL
		// holds a record memory never absorbed, so no later record could
		// replay — poison until a snapshot re-roots the base.
		s.st.Poison(err)
	}
	return ids, commit, err
}

// halves returns the validate and apply steps for the record's kind —
// the one place the SDK interprets a store.Kind.
func (s *Session) halves(rec *store.Record) (validate func() error, apply func() ([]int, error), err error) {
	switch rec.Kind {
	case store.KindInsert:
		return func() error { return s.validateInsert(rec.Rows) },
			func() ([]int, error) { return s.applyInsert(rec.Rows) }, nil
	case store.KindDelete:
		return func() error { return s.validateDelete(rec.Indices) },
			func() ([]int, error) { return nil, s.applyDelete(rec.Indices) }, nil
	case store.KindUpdate:
		return func() error { return s.validateUpdate(rec.Indices, rec.Rows) },
			func() ([]int, error) { return nil, s.applyUpdate(rec.Indices, rec.Rows) }, nil
	}
	return nil, nil, fmt.Errorf("paq: unknown mutation kind %d", rec.Kind)
}

func (s *Session) validateInsert(rows [][]relation.Value) error {
	for i, vals := range rows {
		if err := s.rel.CheckRow(vals); err != nil {
			return fmt.Errorf("paq: insert row %d: %w", i, err)
		}
	}
	return nil
}

// applyInsert is the post-validation, post-logging half of InsertRows
// (shared with WAL replay). Caller holds the write lock.
func (s *Session) applyInsert(rows [][]relation.Value) ([]int, error) {
	ids := make([]int, len(rows))
	for i, vals := range rows {
		ids[i] = s.rel.Len()
		if err := s.rel.Append(vals...); err != nil {
			// Unreachable: every row was validated before.
			return nil, fmt.Errorf("paq: insert row %d: %w", i, err)
		}
	}
	if err := s.eachMaintainer(func(m *partition.Maintainer) error {
		return m.Insert(ids...)
	}); err != nil {
		return nil, err
	}
	s.invalidateStale()
	return ids, nil
}

// DeleteRows removes the given rows (by row index, as reported in
// Result.Rows) from the dataset. Row indices are stable between
// compactions — deleted rows are tombstoned, never renumbered — so a
// package computed earlier still names the surviving rows correctly
// until an explicit Compact reclaims the tombstones.
// The batch is validated first (every index in range, live, and
// distinct); a validation failure leaves the dataset unchanged, while
// on a durable session a write-ahead commit failure is tagged
// ErrIndeterminate (the delete is applied in memory; see InsertRows).
// It returns the new dataset version.
func (s *Session) DeleteRows(rows []int) (uint64, error) {
	_, v, err := s.mutate(&store.Record{Kind: store.KindDelete, Indices: rows})
	return v, err
}

func (s *Session) validateDelete(rows []int) error {
	seen := make(map[int]bool, len(rows))
	for _, row := range rows {
		if row < 0 || row >= s.rel.Len() {
			return fmt.Errorf("paq: delete of row %d out of range [0, %d)", row, s.rel.Len())
		}
		if s.rel.Deleted(row) {
			return fmt.Errorf("paq: row %d is already deleted", row)
		}
		if seen[row] {
			return fmt.Errorf("paq: row %d deleted twice in one batch", row)
		}
		seen[row] = true
	}
	return nil
}

// applyDelete is the post-validation, post-logging half of DeleteRows
// (shared with WAL replay). Caller holds the write lock.
func (s *Session) applyDelete(rows []int) error {
	for _, row := range rows {
		if err := s.rel.Delete(row); err != nil {
			return err // unreachable: validated before
		}
	}
	if err := s.eachMaintainer(func(m *partition.Maintainer) error {
		return m.Delete(rows...)
	}); err != nil {
		return err
	}
	s.invalidateStale()
	return nil
}

// UpdateRows overwrites the given live rows in place (vals[i] replaces
// row rows[i]) and re-routes them through every warm partitioning —
// the rows keep their indices but may move to different leaf cells.
// The batch is validated first; a validation failure leaves the
// dataset unchanged, while on a durable session a write-ahead commit
// failure is tagged ErrIndeterminate (the update is applied in memory;
// see InsertRows). It returns the new dataset version.
func (s *Session) UpdateRows(rows []int, vals [][]relation.Value) (uint64, error) {
	_, v, err := s.mutate(&store.Record{Kind: store.KindUpdate, Indices: rows, Rows: vals})
	return v, err
}

func (s *Session) validateUpdate(rows []int, vals [][]relation.Value) error {
	if len(rows) != len(vals) {
		return fmt.Errorf("paq: update of %d rows with %d value tuples", len(rows), len(vals))
	}
	seen := make(map[int]bool, len(rows))
	for i, row := range rows {
		if row < 0 || row >= s.rel.Len() || s.rel.Deleted(row) {
			return fmt.Errorf("paq: update of invalid row %d", row)
		}
		if seen[row] {
			return fmt.Errorf("paq: row %d updated twice in one batch", row)
		}
		seen[row] = true
		if err := s.rel.CheckRow(vals[i]); err != nil {
			return fmt.Errorf("paq: update row %d: %w", row, err)
		}
	}
	return nil
}

// applyUpdate is the post-validation, post-logging half of UpdateRows
// (shared with WAL replay). Caller holds the write lock.
func (s *Session) applyUpdate(rows []int, vals [][]relation.Value) error {
	for i, row := range rows {
		for c, v := range vals[i] {
			if err := s.rel.Set(row, c, v); err != nil {
				return err // unreachable: validated before
			}
		}
	}
	if err := s.eachMaintainer(func(m *partition.Maintainer) error {
		return m.Update(rows...)
	}); err != nil {
		return err
	}
	s.invalidateStale()
	return nil
}

// eachMaintainer applies one maintenance step to every built
// partitioning of every sibling session (clones with a different τ
// hold their own partitionings over the same relation — leaving those
// unmaintained would let them keep naming deleted rows), creating
// maintainers on first need. Siblings with matching shapes share
// lazyPart pointers, so the step is deduplicated by lazyPart. Caller
// holds the write lock, so no partitioning build is in flight.
func (s *Session) eachMaintainer(fn func(*partition.Maintainer) error) error {
	seen := make(map[*lazyPart]bool)
	var parts []*lazyPart
	for _, sib := range s.sibs.list() {
		sib.mu.Lock()
		for _, lp := range sib.parts {
			if !seen[lp] {
				seen[lp] = true
				parts = append(parts, lp)
			}
		}
		sib.mu.Unlock()
	}
	for _, lp := range parts {
		if lp.part == nil {
			continue // failed (or never-run) build; it will rebuild lazily
		}
		if lp.maint == nil {
			lp.maint = partition.NewMaintainer(lp.part, partition.MaintOptions{})
		}
		if err := fn(lp.maint); err != nil {
			return err
		}
	}
	return nil
}

// invalidateStale reclaims solution-cache entries solved against older
// dataset versions from every engine every sibling session has
// instantiated (the relation — and so the staleness — is shared).
func (s *Session) invalidateStale() {
	var engines []*engine.Engine
	for _, sib := range s.sibs.list() {
		sib.mu.Lock()
		for _, e := range sib.engines {
			engines = append(engines, e)
		}
		for _, e := range sib.overrides {
			engines = append(engines, e)
		}
		sib.mu.Unlock()
	}
	for _, e := range engines {
		e.InvalidateRel(s.rel)
	}
}

// View runs fn with the session's relation under the dataset read
// lock, so concurrent mutations cannot interleave with fn's reads —
// the consistency a serving layer needs when it materializes result
// tuples after a solve. fn must not mutate the dataset or call
// Execute/Prepare/mutation methods (the lock is not reentrant).
func (s *Session) View(fn func(rel *relation.Relation)) {
	s.dataMu.RLock()
	defer s.dataMu.RUnlock()
	fn(s.rel)
}

// MaintStats sums the partition-maintenance counters across every warm
// partitioning of the session (zero until the first mutation touches a
// built partitioning). Rebuilds staying at zero is the contract that
// ingestion never repartitions on the hot path.
func (s *Session) MaintStats() MaintStats {
	s.dataMu.RLock()
	defer s.dataMu.RUnlock()
	s.mu.Lock()
	parts := make([]*lazyPart, 0, len(s.parts))
	for _, lp := range s.parts {
		parts = append(parts, lp)
	}
	s.mu.Unlock()
	var agg MaintStats
	for _, lp := range parts {
		if lp.maint == nil {
			continue
		}
		st := lp.maint.Stats()
		agg.Inserts += st.Inserts
		agg.Deletes += st.Deletes
		agg.Updates += st.Updates
		agg.Splits += st.Splits
		agg.Merges += st.Merges
		agg.Heals += st.Heals
		agg.Rebuilds += st.Rebuilds
	}
	return agg
}

// QualityBound reports the worst multiplicative SketchRefine quality
// factor across the session's maintained partitionings (1 when nothing
// has drifted; see partition.Maintainer.QualityBound). maximize selects
// the sense of the queries being bounded.
func (s *Session) QualityBound(maximize bool) float64 {
	s.dataMu.RLock()
	defer s.dataMu.RUnlock()
	s.mu.Lock()
	parts := make([]*lazyPart, 0, len(s.parts))
	for _, lp := range s.parts {
		parts = append(parts, lp)
	}
	s.mu.Unlock()
	bound := 1.0
	for _, lp := range parts {
		if lp.maint == nil {
			continue
		}
		if b := lp.maint.QualityBound(maximize); b > bound {
			bound = b
		}
	}
	return bound
}
