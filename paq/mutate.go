package paq

import (
	"fmt"

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
	s.d.dataMu.RLock()
	defer s.d.dataMu.RUnlock()
	return s.d.rel.Version()
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
	return s.d.mutate(&store.Record{Kind: store.KindInsert, Rows: rows})
}

// mutate is the one write path: under the dataset write lock the record
// is validated, staged to the write-ahead log (durable sessions) and
// applied; the fsync that makes it durable runs after the lock is
// released. The record's slices are the caller's — no row is copied —
// and its PreVersion is filled in here, under the lock. It returns the
// row indices an insert assigned and the dataset version reached.
func (d *dataset) mutate(rec *store.Record) ([]int, uint64, error) {
	d.dataMu.Lock()
	rec.PreVersion = d.rel.Version()
	ids, commit, err := d.absorbLocked(rec, d.st != nil)
	v := d.rel.Version()
	d.dataMu.Unlock()
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
// the steps live mutations and WAL replay share — then advances to the
// version the apply reached. With logged set the record is staged to the
// WAL between the two (write-ahead) and the commit func returned; an
// empty batch is a no-op that stages nothing. Caller holds the write
// lock.
func (d *dataset) absorbLocked(rec *store.Record, logged bool) (ids []int, commit func() error, err error) {
	validate, apply, err := d.halves(rec)
	if err == nil {
		err = validate()
	}
	if err != nil || rec.Ops() == 0 {
		return nil, nil, err
	}
	if logged {
		if commit, err = d.st.Stage(d.rel.Schema(), rec); err != nil {
			return nil, nil, fmt.Errorf("paq: write-ahead log: %w", err)
		}
	}
	ids, err = apply()
	d.advance()
	if err != nil && logged {
		// Validation makes this unreachable; if it happens anyway the WAL
		// holds a record memory never absorbed, so no later record could
		// replay — poison until a snapshot re-roots the base.
		d.st.Poison(err)
	}
	return ids, commit, err
}

// halves returns the validate and apply steps for the record's kind —
// the one place the SDK interprets a store.Kind.
func (d *dataset) halves(rec *store.Record) (validate func() error, apply func() ([]int, error), err error) {
	switch rec.Kind {
	case store.KindInsert:
		return func() error { return d.validateInsert(rec.Rows) },
			func() ([]int, error) { return d.applyInsert(rec.Rows) }, nil
	case store.KindDelete:
		return func() error { return checkRows(d.rel, rec.Indices, "delete") },
			func() ([]int, error) { return nil, d.applyDelete(rec.Indices) }, nil
	case store.KindUpdate:
		return func() error { return d.validateUpdate(rec.Indices, rec.Rows) },
			func() ([]int, error) { return nil, d.applyUpdate(rec.Indices, rec.Rows) }, nil
	}
	return nil, nil, fmt.Errorf("paq: unknown mutation kind %d", rec.Kind)
}

func (d *dataset) validateInsert(rows [][]relation.Value) error {
	for i, vals := range rows {
		if err := d.rel.CheckRow(vals); err != nil {
			return fmt.Errorf("paq: insert row %d: %w", i, err)
		}
	}
	return nil
}

// applyInsert is the post-validation, post-logging half of InsertRows
// (shared with WAL replay). Caller holds the write lock.
func (d *dataset) applyInsert(rows [][]relation.Value) ([]int, error) {
	ids := make([]int, len(rows))
	for i, vals := range rows {
		ids[i] = d.rel.Len()
		if err := d.rel.Append(vals...); err != nil {
			// Unreachable: every row was validated before.
			return nil, fmt.Errorf("paq: insert row %d: %w", i, err)
		}
	}
	for _, m := range d.maintainers() {
		if err := m.Insert(ids...); err != nil {
			return nil, err
		}
	}
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
	_, v, err := s.d.mutate(&store.Record{Kind: store.KindDelete, Indices: rows})
	return v, err
}

// checkRows holds a caller's row list to the one rule DeleteRows,
// UpdateRows and WithRows share: every index in range, live and distinct.
func checkRows(rel *relation.Relation, rows []int, verb string) error {
	seen := make(map[int]bool, len(rows))
	for _, row := range rows {
		switch {
		case row < 0 || row >= rel.Len():
			return fmt.Errorf("paq: %s of row %d out of range [0, %d)", verb, row, rel.Len())
		case rel.Deleted(row):
			return fmt.Errorf("paq: %s of deleted row %d", verb, row)
		case seen[row]:
			return fmt.Errorf("paq: row %d named twice in one %s", row, verb)
		}
		seen[row] = true
	}
	return nil
}

// applyDelete is the post-validation, post-logging half of DeleteRows
// (shared with WAL replay). Caller holds the write lock.
func (d *dataset) applyDelete(rows []int) error {
	for _, row := range rows {
		if err := d.rel.Delete(row); err != nil {
			return err // unreachable: validated before
		}
	}
	for _, m := range d.maintainers() {
		if err := m.Delete(rows...); err != nil {
			return err
		}
	}
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
	_, v, err := s.d.mutate(&store.Record{Kind: store.KindUpdate, Indices: rows, Rows: vals})
	return v, err
}

func (d *dataset) validateUpdate(rows []int, vals [][]relation.Value) error {
	if len(rows) != len(vals) {
		return fmt.Errorf("paq: update of %d rows with %d value tuples", len(rows), len(vals))
	}
	if err := checkRows(d.rel, rows, "update"); err != nil {
		return err
	}
	for i, row := range rows {
		if err := d.rel.CheckRow(vals[i]); err != nil {
			return fmt.Errorf("paq: update row %d: %w", row, err)
		}
	}
	return nil
}

// applyUpdate is the post-validation, post-logging half of UpdateRows
// (shared with WAL replay): its Set loop runs inside partition.UpdateRows,
// which takes each row out of every partitioning before its cells are
// written. Caller holds the write lock.
func (d *dataset) applyUpdate(rows []int, vals [][]relation.Value) error {
	return partition.UpdateRows(d.maintainers(), rows, func(i int) error {
		for c, v := range vals[i] {
			if err := d.rel.Set(rows[i], c, v); err != nil {
				return err // unreachable: validated before
			}
		}
		return nil
	})
}

// View runs fn with the session's relation under the dataset read
// lock, so concurrent mutations cannot interleave with fn's reads —
// the consistency a serving layer needs when it materializes result
// tuples after a solve. fn must not mutate the dataset or call
// Execute/Prepare/mutation methods (the lock is not reentrant).
func (s *Session) View(fn func(rel *relation.Relation)) {
	s.d.dataMu.RLock()
	defer s.d.dataMu.RUnlock()
	fn(s.d.rel)
}

// readMaintainers runs fn on the maintainer of every partitioning that
// a mutation has touched, under the read lock.
func (s *Session) readMaintainers(fn func(*partition.Maintainer)) {
	s.d.dataMu.RLock()
	defer s.d.dataMu.RUnlock()
	_ = s.d.each(func(e *partEntry) error {
		if e.maint != nil {
			fn(e.maint)
		}
		return nil
	})
}

// MaintStats sums the partition-maintenance counters across every warm
// partitioning of the dataset (zero until the first mutation touches a
// built partitioning). Rebuilds staying at zero is the contract that
// ingestion never repartitions on the hot path.
func (s *Session) MaintStats() MaintStats {
	var agg MaintStats
	s.readMaintainers(func(m *partition.Maintainer) {
		st := m.Stats()
		agg.Inserts += st.Inserts
		agg.Deletes += st.Deletes
		agg.Updates += st.Updates
		agg.Splits += st.Splits
		agg.Merges += st.Merges
		agg.Heals += st.Heals
		agg.Rebuilds += st.Rebuilds
	})
	return agg
}

// QualityBound reports the worst multiplicative SketchRefine quality
// factor across the dataset's maintained partitionings (1 until a
// mutation touches one; see partition.Maintainer.QualityBound).
// maximize selects the sense of the queries being bounded.
func (s *Session) QualityBound(maximize bool) float64 {
	bound := 1.0
	s.readMaintainers(func(m *partition.Maintainer) {
		bound = max(bound, m.QualityBound(maximize))
	})
	return bound
}
