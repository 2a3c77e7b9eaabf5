package repl

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/relation"
	"repro/internal/server"
	"repro/internal/store"
	"repro/internal/workload"
)

// TestCrashAtEveryStreamByte cuts the replication stream at every byte
// boundary of a shipped segment — including every offset inside each
// in-flight record — and crashes the follower there (its session is
// abandoned, never closed). The restarted follower must resume from
// its own durable version with no gap and no duplicate apply: across
// crash + resume every leader record is applied exactly once, and the
// final state matches the leader cell-for-cell.
func TestCrashAtEveryStreamByte(t *testing.T) {
	leaderRoot := t.TempDir()
	leaderDS, err := server.NewDataset("galaxy", workload.Galaxy(80, 1), dsConfig(leaderRoot))
	if err != nil {
		t.Fatal(err)
	}
	defer leaderDS.Close()
	leader := leaderDS.Session()

	// Three records of three kinds, so cuts land inside inserts, deletes,
	// and updates alike.
	pool := workload.Galaxy(16, 5)
	if _, _, err := leader.InsertRows([][]relation.Value{pool.Row(0), pool.Row(1)}); err != nil {
		t.Fatal(err)
	}
	if _, err := leader.DeleteRows([]int{3}); err != nil {
		t.Fatal(err)
	}
	if _, err := leader.UpdateRows([]int{7}, [][]relation.Value{pool.Row(2)}); err != nil {
		t.Fatal(err)
	}
	const wantRecords = 3

	dur := leader.DurStats()
	walPath := store.WALPath(dur.Dir)
	seg, end, err := store.ReadWALSegment(walPath, store.WALStart, dur.WALSyncedBytes, 1<<30)
	if err != nil {
		t.Fatal(err)
	}
	if len(seg) == 0 {
		t.Fatal("empty shipped segment")
	}
	snap, _, err := store.ReadSnapshotBytes(dur.Dir)
	if err != nil {
		t.Fatal(err)
	}

	followerRoot := t.TempDir()
	fdir := filepath.Join(followerRoot, "galaxy")
	fcfg := dsConfig(followerRoot)

	for cut := 0; cut <= len(seg); cut++ {
		// Fresh follower bootstrapped from the leader snapshot.
		if err := os.RemoveAll(fdir); err != nil {
			t.Fatal(err)
		}
		if err := store.InstallSnapshot(fdir, snap); err != nil {
			t.Fatalf("cut %d: install: %v", cut, err)
		}
		ds1, err := server.NewDataset("galaxy", nil, fcfg)
		if err != nil {
			t.Fatalf("cut %d: open: %v", cut, err)
		}
		// The stream dies after cut bytes; a frame cut mid-record must not
		// apply at all.
		preApplied, preSkipped, aerr := applyCounted(t, cut, ds1, seg[:cut])
		if aerr != nil {
			t.Fatalf("cut %d: partial apply: %v", cut, aerr)
		}
		if preSkipped != 0 {
			t.Fatalf("cut %d: partial apply skipped %d records", cut, preSkipped)
		}
		// Crash: ds1 is abandoned without Close. Every applied record was
		// individually committed to the follower's own WAL, so the restart
		// below recovers them all.

		ds2, err := server.NewDataset("galaxy", nil, fcfg)
		if err != nil {
			t.Fatalf("cut %d: reopen after crash: %v", cut, err)
		}
		sess2 := ds2.Session()
		if got := sess2.DurStats().ReplayedOps; preApplied == 0 && got != 0 {
			t.Fatalf("cut %d: replayed %d ops from an empty follower WAL", cut, got)
		}

		// Resume exactly like pollOnce's version path: the follower's own
		// durable version names the next record.
		off, err := store.OffsetOfVersion(walPath, sess2.Version())
		if err != nil {
			t.Fatalf("cut %d: resume offset for version %d: %v", cut, sess2.Version(), err)
		}
		rest, restEnd, err := store.ReadWALSegment(walPath, off, dur.WALSyncedBytes, 1<<30)
		if err != nil {
			t.Fatalf("cut %d: resume read: %v", cut, err)
		}
		if restEnd != end {
			t.Fatalf("cut %d: resume segment ends at %d, full segment at %d", cut, restEnd, end)
		}
		postApplied, postSkipped, aerr := applyCounted(t, cut, ds2, rest)
		if aerr != nil {
			t.Fatalf("cut %d: resume apply: %v", cut, aerr)
		}
		if postSkipped != 0 {
			t.Fatalf("cut %d: resume re-shipped %d already-applied records (duplicate window)", cut, postSkipped)
		}
		if preApplied+postApplied != wantRecords {
			t.Fatalf("cut %d: %d records applied before crash + %d after = %d, want exactly %d",
				cut, preApplied, postApplied, preApplied+postApplied, wantRecords)
		}

		if got, want := sess2.Version(), leader.Version(); got != want {
			t.Fatalf("cut %d: follower at version %d, leader at %d", cut, got, want)
		}
		ra, rb := leader.Rel(), sess2.Rel()
		if ra.Len() != rb.Len() || ra.Live() != rb.Live() {
			t.Fatalf("cut %d: shape diverged: %d/%d vs %d/%d", cut, ra.Len(), ra.Live(), rb.Len(), rb.Live())
		}
		for r := 0; r < ra.Len(); r++ {
			if ra.Deleted(r) != rb.Deleted(r) {
				t.Fatalf("cut %d: tombstone of row %d diverged", cut, r)
			}
			if ra.Deleted(r) {
				continue
			}
			for c := 0; c < ra.Schema().Len(); c++ {
				if !ra.Value(r, c).Equal(rb.Value(r, c)) {
					t.Fatalf("cut %d: cell (%d,%d) diverged", cut, r, c)
				}
			}
		}
	}
}

// applyCounted runs applyStream over raw bytes and returns its record
// counters.
func applyCounted(t *testing.T, cut int, ds *server.Dataset, raw []byte) (applied, skipped int, err error) {
	t.Helper()
	_, applied, skipped, err = applyStream(ds.Session(), bytes.NewReader(raw))
	return applied, skipped, err
}
