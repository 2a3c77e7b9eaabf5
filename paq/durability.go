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
// Durable=false, for in-memory sessions). It reads the same on a clone
// as on the original: all of it is the dataset's.
func (s *Session) DurStats() DurStats {
	d := s.d
	d.dataMu.RLock()
	defer d.dataMu.RUnlock()
	if d.st == nil {
		return DurStats{}
	}
	st := d.st.Stats()
	return DurStats{
		Durable:           true,
		Dir:               d.st.Dir(),
		WALBytes:          st.WALBytes,
		WALSyncedBytes:    st.WALSynced,
		SnapshotVersion:   st.SnapshotVersion,
		SnapshotAge:       st.SnapshotAge,
		Snapshots:         st.Snapshots,
		Compactions:       st.Compactions,
		ReplayedOps:       st.ReplayedOps,
		WarmPartitionings: d.warm,
		WALAppends:        st.Appends,
		WALSyncs:          st.Syncs,
		Poisoned:          d.st.Poisoned(),
	}
}

// recover rebuilds the dataset's warm state from a boot snapshot and
// replays the WAL suffix. Called from Open before the dataset is
// shared, so nothing runs beside it. Each stored partitioning keeps the
// τ and ω it was built with, whatever the opener's; only sets built
// after the reopen use the opener's.
func (d *dataset) recover(boot *store.Snapshot) error {
	// Warm-start every serialized partitioning: reconstruct the group
	// structure and representatives without any quad-tree build, and
	// resume its incremental maintenance with the persisted counters.
	for _, ps := range boot.Parts {
		p, err := partition.FromGroups(d.rel, ps.Attrs, ps.Tau, ps.Omega, ps.Workers, ps.Groups)
		if err != nil {
			return fmt.Errorf("%w: restoring partitioning over %v: %v", ErrCorrupt, ps.Attrs, err)
		}
		e := d.entry(partKey(ps.Attrs), true)
		e.maint = partition.NewMaintainer(p, partition.MaintOptions{})
		e.maint.RestoreStats(ps.Stats)
		e.part.Store(p)
		d.warm++
	}
	// Replay the WAL suffix through the same apply path live mutations
	// use, so maintainers and caches see exactly what they saw before
	// the crash. Each record must line up with the version the dataset
	// has reached — a gap or overlap is corruption, not a tolerable
	// drift.
	return d.st.Replay(d.rel.Schema(), func(rec *store.Record) error {
		if got := d.rel.Version(); rec.PreVersion != got {
			return fmt.Errorf("%w: WAL record expects dataset version %d, relation is at %d",
				ErrCorrupt, rec.PreVersion, got)
		}
		if _, _, err := d.absorbLocked(rec, false); err != nil {
			return fmt.Errorf("%w: replaying %s at version %d: %v", ErrCorrupt, rec.Kind, rec.PreVersion, err)
		}
		return nil
	})
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
	s.d.dataMu.Lock()
	defer s.d.dataMu.Unlock()
	return s.d.snapshotLocked()
}

// snapshotLocked writes the snapshot. The persisted partitionings are
// every built registry entry, whichever session built it — one
// PartState per attribute set. Caller holds the write lock.
func (d *dataset) snapshotLocked() error {
	if d.st == nil {
		return fmt.Errorf("paq: session has no durability store (see WithDurability)")
	}
	if d.rel.Len() == d.rel.Live() && !d.st.Dirty(d.rel.Version()) && !d.dirty.Load() {
		// Nothing to fold in: no tombstones to reclaim, no WAL records,
		// the latest snapshot already holds this exact version, and no
		// partitioning was built since. Skip the O(dataset) rewrite —
		// this is every read-only run's Close.
		return nil
	}
	compacted, err := d.compactLocked()
	if err != nil {
		if compacted > 0 {
			d.st.Poison(err)
		}
		return err
	}
	snap := &store.Snapshot{Version: d.rel.Version(), Rel: d.rel}
	_ = d.each(func(e *partEntry) error {
		p := e.part.Load()
		ps := store.PartState{Attrs: p.Attrs, Tau: p.Tau, Omega: p.Omega, Workers: p.Workers, Groups: p.Groups}
		if e.maint != nil {
			ps.Stats = e.maint.Stats()
		}
		snap.Parts = append(snap.Parts, ps)
		return nil
	})
	if err := d.st.WriteSnapshot(snap); err != nil {
		if compacted > 0 {
			// The in-memory state is compacted (rows renumbered, version
			// bumped with no WAL record) but the durable base is not: no
			// future mutation could be replayed correctly, so logging is
			// poisoned until a snapshot succeeds and re-roots the base.
			// Acknowledgements never outrun what recovery can rebuild.
			d.st.Poison(err)
		}
		return fmt.Errorf("paq: snapshot: %w", err)
	}
	d.dirty.Store(false)
	return nil
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
	d := s.d
	d.dataMu.Lock()
	defer d.dataMu.Unlock()
	reclaimed, err := d.compactLocked()
	if err == nil && reclaimed > 0 && d.st != nil {
		err = d.snapshotLocked()
	}
	if err != nil && reclaimed > 0 && d.st != nil {
		// Memory is compacted but the durable base is not (see
		// snapshotLocked): refuse mutations until a snapshot lands.
		d.st.Poison(err)
	}
	return reclaimed, err
}

// compactLocked renumbers the relation, advances to the version the
// renumbering reached, and remaps every partitioning over it through the
// renumbering.
func (d *dataset) compactLocked() (int, error) {
	reclaimed := d.rel.Len() - d.rel.Live()
	remap := d.rel.Compact()
	if remap == nil {
		return 0, nil
	}
	d.advance()
	if err := d.each(func(e *partEntry) error { return e.part.Load().Remap(remap) }); err != nil {
		return reclaimed, fmt.Errorf("paq: compact: %w", err)
	}
	if d.st != nil {
		d.st.NoteCompaction()
	}
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
func (s *Session) ClosePreservingLayout() error { return s.close(false) }

// Close flushes and closes a durable session: a final snapshot folds
// every acknowledged mutation into the on-disk image, then the store
// is closed. Because clones share the store, Close affects them too:
// reads and solves keep working everywhere, but further mutations on
// this session or any clone fail with a "closed WAL" error — never
// silently un-persisted. Close is idempotent; on an in-memory session
// it is a no-op.
func (s *Session) Close() error { return s.close(true) }

// close is Close; with renumber unset the final snapshot is taken only
// if it would not compact.
func (s *Session) close(renumber bool) error {
	d := s.d
	d.dataMu.Lock()
	defer d.dataMu.Unlock()
	if d.st == nil || d.st.IsClosed() {
		return nil
	}
	var err error
	if renumber || d.rel.Len() == d.rel.Live() {
		err = d.snapshotLocked()
	}
	if cerr := d.st.Close(); err == nil {
		err = cerr
	}
	return err
}
