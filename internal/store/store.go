// Package store is the durability subsystem: an append-only,
// checksummed write-ahead log plus periodic snapshots that together
// make datasets, their versions, and their warm partitionings survive
// crashes and restarts.
//
// The design follows the snapshot+log recovery shape of main-memory
// DBMSs: the authoritative state lives in RAM (relation + quad-tree
// partitionings); every mutation batch is appended to the WAL — with
// group-commit fsync batching — *before* it is applied, so an
// acknowledged mutation is always durable; and a snapshot periodically
// folds the log into a compact on-disk image (tombstones reclaimed,
// partitioning trees and their maintenance state serialized), after
// which the WAL restarts empty. Recovery is load-snapshot +
// replay-WAL-suffix: partitionings warm-start from the snapshot instead
// of paying the offline quad-tree build again — exactly the cost
// SketchRefine's offline phase was designed to amortize.
//
// On-disk layout (one directory per dataset):
//
//	wal.paqlog        length-prefixed, CRC-32C-checksummed records
//	snapshot.paqsnap  the latest snapshot (atomic tmp+rename)
//
// Each format decision has one owner. WAL frame: WAL.Stage writes it,
// parseFrame reads it (the file scan, ReadWALSegment and ReadFrame only
// add their policy for a short or bad frame). Mutation record:
// EncodeRecord / DecodeRecord over one recordHeader. Framed files:
// writeFramedFile / verifyFramed. And there are two durable writes —
// the frame append and WriteFileAtomic — so a fault-injection seam has
// two entry points to wrap.
//
// Crash-safety contract: a torn WAL tail (a crash mid-append) is
// dropped silently — the write was never acknowledged; everything else
// that fails verification surfaces as ErrCorrupt, never a panic and
// never silently applied garbage. The crash window between snapshot
// rename and WAL truncation is closed by versioning: every record
// carries the dataset version it applied at, and replay skips records
// the snapshot already folded in.
package store

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	"repro/internal/relation"
)

// Default file names inside a store directory.
const (
	walFile  = "wal.paqlog"
	snapFile = "snapshot.paqsnap"
)

// Store is one dataset's durability state: its WAL and latest snapshot.
// Stage and Log — one mutation Record in, one WAL record out — are safe
// for concurrent use; Replay and WriteSnapshot must be serialized with
// them by the caller (paq.Session runs all of them under its dataset
// write lock).
type Store struct {
	dir  string
	wal  *WAL
	boot *Snapshot // snapshot loaded at Open; nil for a fresh store

	snapVersion uint64
	snapTime    time.Time
	snapshots   uint64
	compactions uint64
	replayedOps uint64

	// poisoned is set when the in-memory dataset diverged from the
	// durable base without a WAL record to bridge it — a compaction
	// whose snapshot failed to persist. Logging must then refuse (an
	// acknowledged mutation could never be replayed correctly) until a
	// snapshot succeeds and re-roots the durable state. Accessed only
	// under the owning session's locks, like the fields above.
	poisoned error
}

// Stats is a point-in-time snapshot of the store's durability state
// (surfaced by paqld's /stats).
type Stats struct {
	// WALBytes is the current WAL size (records since the last
	// snapshot); WALSynced the durably fsynced prefix of it — the only
	// bytes replication may ship.
	WALBytes  int64
	WALSynced int64
	// SnapshotVersion is the dataset version the latest snapshot holds.
	SnapshotVersion uint64
	// SnapshotAge is the time since the latest snapshot was written
	// (zero when the store has never snapshotted).
	SnapshotAge time.Duration
	// Snapshots counts snapshots written by this process; Compactions
	// the tombstone-reclaiming compactions of the dataset among them
	// (NoteCompaction) — on the store, not the session, so every session
	// sharing it reports one number.
	Snapshots   uint64
	Compactions uint64
	// ReplayedOps counts the row mutations replayed from the WAL at
	// recovery.
	ReplayedOps uint64
	// Appends and Syncs instrument WAL group commit: Syncs < Appends
	// under concurrent load is the fsync batching at work.
	Appends, Syncs uint64
}

// Open opens (creating if necessary) the durability state in dir. The
// latest snapshot, if any, is loaded and verified; the WAL is opened
// for appending past its last complete record. Corrupt state fails with
// ErrCorrupt.
func Open(dir string) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	s := &Store{dir: dir}
	snapPath := filepath.Join(dir, snapFile)
	reapTmp(snapPath)
	snap, err := readSnapshotFile(snapPath)
	if err != nil {
		return nil, err
	}
	if snap != nil {
		s.boot = snap
		s.snapVersion = snap.Version
		if fi, err := os.Stat(snapPath); err == nil {
			s.snapTime = fi.ModTime()
		}
	}
	walPath := filepath.Join(dir, walFile)
	if _, err := os.Stat(walPath); os.IsNotExist(err) {
		if snap != nil {
			// The protocol never leaves a snapshot without its WAL (the
			// log is created before the first snapshot and only ever
			// truncated, not removed). A missing log means external loss
			// — any acknowledged post-snapshot mutation it held would
			// vanish silently if we just started a fresh one.
			return nil, fmt.Errorf("%w: %s: snapshot present but %s is missing", ErrCorrupt, dir, walFile)
		}
		s.wal, err = CreateWAL(walPath)
		if err != nil {
			return nil, err
		}
	} else {
		s.wal, err = OpenWAL(walPath)
		if err != nil {
			return nil, err
		}
	}
	return s, nil
}

// Dir returns the store's directory.
func (s *Store) Dir() string { return s.dir }

// HasState reports whether dir holds a recoverable store — a snapshot
// has been written there. Serving layers use it to decide between
// recovering a dataset from disk and seeding it afresh, without
// hard-coding the store's private file names.
func HasState(dir string) bool {
	_, err := os.Stat(filepath.Join(dir, snapFile))
	return err == nil
}

// WALPath returns the write-ahead log's path within a store directory
// (for crash-injection harnesses that tear the log deliberately; normal
// consumers never touch the file).
func WALPath(dir string) string { return filepath.Join(dir, walFile) }

// BootSnapshot returns the snapshot loaded at Open, or nil for a fresh
// store. The returned relation is meant to be adopted as the live
// dataset (recovery does not copy it).
func (s *Store) BootSnapshot() *Snapshot { return s.boot }

// Replay streams the WAL's mutation records — decoded against schema —
// to apply, in append order, skipping records the boot snapshot already
// folded in (their PreVersion predates the snapshot's version: the
// crash window between snapshot rename and WAL truncation). apply must
// return an error if a record does not line up with the recovering
// dataset's version; that error aborts the replay.
func (s *Store) Replay(schema relation.Schema, apply func(*Record) error) error {
	_, err := ReplayWAL(filepath.Join(s.dir, walFile), func(payload []byte) error {
		rec, err := DecodeRecord(schema, payload)
		if err != nil {
			return err
		}
		if rec.PreVersion < s.snapVersion {
			return nil // already in the snapshot
		}
		if err := apply(rec); err != nil {
			return err
		}
		s.replayedOps += uint64(rec.Ops())
		return nil
	})
	return err
}

// Poison marks the durable base as diverged from memory (see the field
// doc); every staged log call fails until a WriteSnapshot succeeds.
func (s *Store) Poison(err error) {
	s.poisoned = fmt.Errorf("store: durable base diverged (mutations refused until a snapshot succeeds): %w", err)
}

// Poisoned reports whether logging is refused pending a snapshot —
// because a compaction outran its snapshot, or because the WAL itself
// failed a write/fsync (a successful snapshot heals both: it re-roots
// the base and its WAL truncation discards the unprovable bytes).
func (s *Store) Poisoned() bool { return s.poisoned != nil || s.wal.Failed() != nil }

// IsClosed reports whether the store was closed (logging then fails).
func (s *Store) IsClosed() bool { return s.wal.IsClosed() }

// Dirty reports whether the live dataset (at the given version) has
// outrun the latest snapshot — i.e. whether writing a snapshot now
// would change what recovery reproduces. A clean store lets flush
// paths (Session.Close after a read-only run) skip the O(dataset)
// snapshot rewrite.
func (s *Store) Dirty(version uint64) bool {
	return s.Poisoned() ||
		s.snapTime.IsZero() ||
		s.wal.Size() > int64(len(walMagic)) ||
		s.snapVersion != version
}

// Stage encodes the record, frames it into the WAL and returns the
// commit func that blocks until it is durable. Stage before applying the
// batch (write-ahead); commit before acknowledging it. Callers stage
// under their data lock (cheap buffered write, keeps records in version
// order) and commit after releasing it, so concurrent committers share
// group-commit fsync rounds and readers are never blocked behind a disk
// flush.
func (s *Store) Stage(schema relation.Schema, rec *Record) (func() error, error) {
	payload, err := EncodeRecord(schema, rec)
	if err != nil {
		return nil, err
	}
	if s.poisoned != nil {
		return nil, s.poisoned
	}
	tok, err := s.wal.Stage(payload)
	if err != nil {
		return nil, err
	}
	return func() error { return s.wal.Commit(tok) }, nil
}

// Log stages and immediately commits a record (durable on return) — the
// form for callers without a lock to step out of.
func (s *Store) Log(schema relation.Schema, rec *Record) error {
	commit, err := s.Stage(schema, rec)
	if err != nil {
		return err
	}
	return commit()
}

// LogInsert is Log of an insert batch.
func (s *Store) LogInsert(schema relation.Schema, preVersion uint64, rows [][]relation.Value) error {
	return s.Log(schema, &Record{Kind: KindInsert, PreVersion: preVersion, Rows: rows})
}

// LogDelete is Log of a delete batch.
func (s *Store) LogDelete(preVersion uint64, rows []int) error {
	return s.Log(relation.Schema{}, &Record{Kind: KindDelete, PreVersion: preVersion, Indices: rows})
}

// LogUpdate is Log of an update batch (vals[i] replaces row rows[i]).
func (s *Store) LogUpdate(schema relation.Schema, preVersion uint64, rows []int, vals [][]relation.Value) error {
	return s.Log(schema, &Record{Kind: KindUpdate, PreVersion: preVersion, Indices: rows, Rows: vals})
}

// NoteCompaction counts one tombstone-reclaiming compaction of the
// dataset (Stats.Compactions). Called under the owning session's write
// lock, like every other counter here.
func (s *Store) NoteCompaction() { s.compactions++ }

// WriteSnapshot atomically persists a new snapshot and truncates the
// WAL past it (every logged record is now redundant). The snapshot's
// relation must be compacted (no tombstones). On success the old WAL
// contents are gone; on failure the previous snapshot and WAL remain
// authoritative.
func (s *Store) WriteSnapshot(snap *Snapshot) error {
	if err := writeSnapshotFile(filepath.Join(s.dir, snapFile), snap); err != nil {
		return err
	}
	s.snapVersion = snap.Version
	s.snapTime = time.Now()
	s.snapshots++
	s.boot = nil     // the boot image is superseded; let it be collected
	s.poisoned = nil // the durable base is re-rooted at the live state
	if err := s.wal.Reset(); err != nil {
		// The snapshot is durable; a failed truncation only leaves
		// redundant records that replay will skip by version.
		return fmt.Errorf("store: snapshot written but WAL truncation failed: %w", err)
	}
	return nil
}

// Stats snapshots the store's durability counters.
func (s *Store) Stats() Stats {
	st := Stats{
		WALBytes:        s.wal.Size(),
		WALSynced:       s.wal.SyncedSize(),
		SnapshotVersion: s.snapVersion,
		Snapshots:       s.snapshots,
		Compactions:     s.compactions,
		ReplayedOps:     s.replayedOps,
	}
	if !s.snapTime.IsZero() {
		st.SnapshotAge = time.Since(s.snapTime)
	}
	st.Appends, st.Syncs = s.wal.GroupCommitStats()
	return st
}

// Close closes the WAL. It does not snapshot; callers that want a
// flush-on-close write one first (paq.Session.Close does).
func (s *Store) Close() error { return s.wal.Close() }
