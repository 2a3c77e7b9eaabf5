package paq

import (
	"fmt"
	"time"

	"repro/internal/partition"
	"repro/internal/store"
)

// ErrCorrupt is the typed error for durable state that fails
// verification at recovery (checksum mismatch, records out of version
// order, a snapshot that does not decode). It aliases the store
// package's sentinel so errors.Is works across layers.
var ErrCorrupt = store.ErrCorrupt

// DurStats is a snapshot of a durable session's persistence state (the
// serving layer surfaces it in /stats).
type DurStats struct {
	// Durable reports whether the session persists at all; every other
	// field is zero when it does not.
	Durable bool `json:"durable"`
	// Dir is the store directory.
	Dir string `json:"dir,omitempty"`
	// WALBytes is the current write-ahead log size — the bytes a crash
	// would replay. WALSyncedBytes is the durably fsynced prefix of it:
	// the replication watermark (a leader ships only synced bytes).
	WALBytes       int64 `json:"wal_bytes"`
	WALSyncedBytes int64 `json:"wal_synced_bytes"`
	// SnapshotVersion is the dataset version held by the latest
	// snapshot; SnapshotAge the time since it was written.
	SnapshotVersion uint64        `json:"snapshot_version"`
	SnapshotAge     time.Duration `json:"snapshot_age"`
	// Snapshots counts snapshots written by this session's process;
	// Compactions the tombstone-reclaiming compactions among them.
	Snapshots   uint64 `json:"snapshots"`
	Compactions uint64 `json:"compactions"`
	// ReplayedOps counts the row mutations replayed from the WAL when
	// this session recovered (0 when it started fresh).
	ReplayedOps uint64 `json:"replayed_ops"`
	// WarmPartitionings counts the partitionings warm-started from the
	// snapshot at recovery — each one is an offline quad-tree build the
	// restart did NOT pay.
	WarmPartitionings int `json:"warm_partitionings"`
	// WALAppends and WALSyncs instrument group commit: syncs < appends
	// under concurrent mutation load is the fsync batching at work.
	WALAppends uint64 `json:"wal_appends"`
	WALSyncs   uint64 `json:"wal_syncs"`
	// Poisoned reports that a compaction outran its snapshot (the write
	// failed): mutations are refused until a Snapshot succeeds and
	// re-roots the durable base. paqld's maintenance pass retries.
	Poisoned bool `json:"poisoned,omitempty"`
}

// DurStats reports the session's durability state (zero-valued, with
// Durable=false, for in-memory sessions).
func (s *Session) DurStats() DurStats {
	s.dataMu.RLock()
	defer s.dataMu.RUnlock()
	if s.st == nil {
		return DurStats{}
	}
	st := s.st.Stats()
	return DurStats{
		Durable:           true,
		Dir:               s.st.Dir(),
		WALBytes:          st.WALBytes,
		WALSyncedBytes:    st.WALSynced,
		SnapshotVersion:   st.SnapshotVersion,
		SnapshotAge:       st.SnapshotAge,
		Snapshots:         st.Snapshots,
		Compactions:       st.Compactions,
		ReplayedOps:       st.ReplayedOps,
		WarmPartitionings: s.warmParts,
		WALAppends:        st.Appends,
		WALSyncs:          st.Syncs,
		Poisoned:          s.st.Poisoned(),
	}
}

// recover rebuilds the session's warm state from a boot snapshot and
// replays the WAL suffix. Called from Open before the session is
// shared, so no locking is needed.
func (s *Session) recover(boot *store.Snapshot) error {
	// Warm-start every serialized partitioning: reconstruct the group
	// structure and representatives without any quad-tree build, and
	// resume its incremental maintenance with the persisted counters.
	for _, ps := range boot.Parts {
		p, err := partition.FromGroups(s.rel, ps.Attrs, ps.Tau, ps.Omega, ps.Workers, ps.Groups)
		if err != nil {
			return fmt.Errorf("%w: restoring partitioning over %v: %v", ErrCorrupt, ps.Attrs, err)
		}
		m := partition.NewMaintainer(p, partition.MaintOptions{})
		m.RestoreStats(ps.Stats)
		lp := &lazyPart{part: p, maint: m}
		lp.once.Do(func() {}) // mark built: partitioningFor must not rebuild
		lp.built.Store(true)
		s.parts[partKey(ps.Attrs)] = lp
		s.warmParts++
	}
	// Replay the WAL suffix through the same apply path live mutations
	// use, so maintainers and caches see exactly what they saw before
	// the crash. Each record must line up with the version the dataset
	// has reached — a gap or overlap is corruption, not a tolerable
	// drift.
	err := s.st.Replay(s.rel.Schema(), func(rec *store.Record) error {
		if got := s.rel.Version(); rec.PreVersion != got {
			return fmt.Errorf("%w: WAL record expects dataset version %d, relation is at %d",
				ErrCorrupt, rec.PreVersion, got)
		}
		if _, _, err := s.absorbLocked(rec, false); err != nil {
			return fmt.Errorf("%w: replaying %s at version %d: %v", ErrCorrupt, rec.Kind, rec.PreVersion, err)
		}
		return nil
	})
	return err
}

// Snapshot persists a point-in-time image of the dataset: tombstones
// are compacted away (see Compact), the relation, its version, and
// every warm partitioning — with its maintenance counters — are
// serialized atomically, and the write-ahead log is truncated past the
// snapshot horizon. A later Open recovers from this image and replays
// only mutations that arrive after it.
//
// Snapshot blocks mutations and solves for its duration (it holds the
// dataset write lock). It is an error on a session without durability.
func (s *Session) Snapshot() error {
	s.dataMu.Lock()
	defer s.dataMu.Unlock()
	return s.snapshotLocked()
}

func (s *Session) snapshotLocked() error {
	if s.st == nil {
		return fmt.Errorf("paq: session has no durability store (see WithDurability)")
	}
	// The advisor's evidence rides every flush as a best-effort sidecar
	// write — advisory state must never fail (or dirty) the snapshot.
	_ = s.saveAdvisorState()
	s.mu.Lock()
	partsDirty := s.partsDirty
	s.mu.Unlock()
	if s.rel.Len() == s.rel.Live() && !s.st.Dirty(s.rel.Version()) && !partsDirty {
		// Nothing to fold in: no tombstones to reclaim, no WAL records,
		// the latest snapshot already holds this exact version, and no
		// partitioning was built or evicted since. Skip the O(dataset)
		// rewrite — this is every read-only run's Close.
		return nil
	}
	compacted, err := s.compactLocked()
	if err != nil {
		if compacted > 0 {
			s.st.Poison(err)
		}
		return err
	}
	snap := &store.Snapshot{Version: s.rel.Version(), Rel: s.rel, Parts: s.partStates()}
	if err := s.st.WriteSnapshot(snap); err != nil {
		if compacted > 0 {
			// The in-memory state is compacted (rows renumbered, version
			// bumped with no WAL record) but the durable base is not: no
			// future mutation could be replayed correctly, so logging is
			// poisoned until a snapshot succeeds and re-roots the base.
			// Acknowledgements never outrun what recovery can rebuild.
			s.st.Poison(err)
		}
		return fmt.Errorf("paq: snapshot: %w", err)
	}
	s.mu.Lock()
	s.partsDirty = false
	s.mu.Unlock()
	return nil
}

// partStates serializes every built partitioning (caller holds the
// write lock, so no build or maintenance is in flight).
func (s *Session) partStates() []store.PartState {
	s.mu.Lock()
	parts := make([]*lazyPart, 0, len(s.parts))
	for _, lp := range s.parts {
		parts = append(parts, lp)
	}
	s.mu.Unlock()
	out := make([]store.PartState, 0, len(parts))
	for _, lp := range parts {
		if lp.part == nil {
			continue // failed or never-run build
		}
		ps := store.PartState{
			Attrs:   lp.part.Attrs,
			Tau:     lp.part.Tau,
			Omega:   lp.part.Omega,
			Workers: lp.part.Workers,
			Groups:  lp.part.Groups,
		}
		if lp.maint != nil {
			ps.Stats = lp.maint.Stats()
		}
		out = append(out, ps)
	}
	return out
}

// Compact physically reclaims tombstoned rows, remapping every warm
// partitioning's row indices through the compaction — the fix for
// unbounded tombstone growth under delete-heavy workloads. Row indices
// handed out before the compaction (package results, insert
// acknowledgements) are invalidated: the version bump reclaims stale
// cached solutions, but clients holding raw indices must refresh them.
// On a durable session the compaction is immediately made durable with
// a snapshot (the WAL's row indices predate the renumbering, so the
// snapshot is what persists it).
//
// It returns the number of physical rows reclaimed (0 when there were
// no tombstones — then nothing changes, not even the version).
func (s *Session) Compact() (int, error) {
	s.dataMu.Lock()
	defer s.dataMu.Unlock()
	reclaimed, err := s.compactLocked()
	if err != nil {
		if reclaimed > 0 && s.st != nil {
			s.st.Poison(err)
		}
		return reclaimed, err
	}
	if reclaimed > 0 && s.st != nil {
		if err := s.snapshotLocked(); err != nil {
			// Memory is compacted but the durable base is not (see
			// snapshotLocked): refuse mutations until a snapshot lands.
			s.st.Poison(err)
			return reclaimed, err
		}
	}
	return reclaimed, nil
}

func (s *Session) compactLocked() (int, error) {
	reclaimed := s.rel.Len() - s.rel.Live()
	remap := s.rel.Compact()
	if remap == nil {
		return 0, nil
	}
	// Remap every sibling session's partitionings, not just this one's:
	// a clone with a different τ holds its own partitioning over the
	// same (now renumbered) relation. Siblings with matching shapes
	// share lazyPart pointers, so dedup by partitioning — remapping one
	// twice would corrupt it.
	siblings := s.sibs.list()
	seen := make(map[*partition.Partitioning]bool)
	var parts []*partition.Partitioning
	for _, sib := range siblings {
		sib.mu.Lock()
		for _, lp := range sib.parts {
			if lp.part != nil && !seen[lp.part] {
				seen[lp.part] = true
				parts = append(parts, lp.part)
			}
		}
		sib.mu.Unlock()
	}
	for _, p := range parts {
		if err := p.Remap(remap); err != nil {
			return reclaimed, fmt.Errorf("paq: compact: %w", err)
		}
	}
	if s.st != nil {
		s.st.NoteCompaction()
	}
	s.invalidateStale() // reaches every sibling's engines
	return reclaimed, nil
}

// ClosePreservingLayout closes a durable session without ever
// renumbering rows. A replica that applies a leader's log by physical
// row index must keep its layout — tombstones included — identical to
// the leader's, and the snapshot format only holds compacted
// relations. So: with no tombstones present this is exactly Close (the
// compaction inside the snapshot is a no-op); with tombstones the
// final snapshot is skipped and the session's own WAL remains the
// durable record — recovery replays it and rebuilds the tombstones in
// place. Nothing acknowledged is lost either way.
func (s *Session) ClosePreservingLayout() error {
	s.dataMu.Lock()
	defer s.dataMu.Unlock()
	if s.st == nil || s.st.IsClosed() {
		return nil
	}
	var err error
	if s.rel.Len() == s.rel.Live() {
		err = s.snapshotLocked()
	}
	if cerr := s.st.Close(); err == nil {
		err = cerr
	}
	return err
}

// Close flushes and closes a durable session: a final snapshot folds
// every acknowledged mutation into the on-disk image, then the store
// is closed. Because clones share the store, Close affects them too:
// reads and solves keep working everywhere, but further mutations on
// this session or any clone fail with a "closed WAL" error — never
// silently un-persisted. Close is idempotent; on an in-memory session
// it is a no-op.
func (s *Session) Close() error {
	s.dataMu.Lock()
	defer s.dataMu.Unlock()
	if s.st == nil || s.st.IsClosed() {
		return nil
	}
	err := s.snapshotLocked()
	if cerr := s.st.Close(); err == nil {
		err = cerr
	}
	return err
}
