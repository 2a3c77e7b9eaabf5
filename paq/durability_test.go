package paq_test

import (
	"context"
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"repro/internal/relation"
	"repro/internal/reltest"
	"repro/paq"
)

func durTable(t *testing.T, n int, seed int64) *relation.Relation {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	rel := relation.New("items", reltest.Schema(
		relation.Column{Name: "cost", Type: relation.Float},
		relation.Column{Name: "gain", Type: relation.Float},
	))
	for i := 0; i < n; i++ {
		reltest.Append(rel, relation.F(1+rng.Float64()*9), relation.F(1+rng.Float64()*9))
	}
	return rel
}

func durRow(rng *rand.Rand) []relation.Value {
	return []relation.Value{relation.F(1 + rng.Float64()*9), relation.F(1 + rng.Float64()*9)}
}

const durQuery = `
SELECT PACKAGE(I) AS P FROM items I REPEAT 0
SUCH THAT COUNT(P.*) = 4 AND SUM(P.cost) <= 25
MAXIMIZE SUM(P.gain)`

func durOpts(extra ...paq.Option) []paq.Option {
	return append([]paq.Option{
		paq.WithTauTuples(40),
		paq.WithMethod(paq.MethodSketchRefine),
		paq.WithWarmPartitioning(),
		paq.WithSeed(1),
		paq.WithoutCache(),
	}, extra...)
}

func solveObjective(t *testing.T, s *paq.Session) float64 {
	t.Helper()
	stmt, err := s.Prepare(durQuery)
	if err != nil {
		t.Fatal(err)
	}
	res, err := stmt.Execute(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	return res.Objective
}

// applyStream drives an identical deterministic mutation stream into
// every given session.
func applyStream(t *testing.T, ops int, seed int64, sessions ...*paq.Session) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	live := sessions[0].Rel().AllRows()
	for op := 0; op < ops; op++ {
		switch k := rng.Float64(); {
		case k < 0.5 || len(live) < 20:
			row := durRow(rng)
			for _, s := range sessions {
				ids, _, err := s.InsertRows([][]relation.Value{row})
				if err != nil {
					t.Fatalf("op %d insert: %v", op, err)
				}
				live = live[:0:0]
				live = s.Rel().AllRows()
				_ = ids
			}
		case k < 0.8:
			victim := live[rng.Intn(len(live))]
			for _, s := range sessions {
				if _, err := s.DeleteRows([]int{victim}); err != nil {
					t.Fatalf("op %d delete %d: %v", op, victim, err)
				}
				live = s.Rel().AllRows()
			}
		default:
			victim := live[rng.Intn(len(live))]
			row := durRow(rng)
			for _, s := range sessions {
				if _, err := s.UpdateRows([]int{victim}, [][]relation.Value{row}); err != nil {
					t.Fatalf("op %d update %d: %v", op, victim, err)
				}
			}
		}
	}
}

func sessionsEqual(t *testing.T, a, b *paq.Session) {
	t.Helper()
	if av, bv := a.Version(), b.Version(); av != bv {
		t.Fatalf("versions diverge: %d vs %d", av, bv)
	}
	ra, rb := a.Rel(), b.Rel()
	if ra.Len() != rb.Len() || ra.Live() != rb.Live() {
		t.Fatalf("Len/Live diverge: %d/%d vs %d/%d", ra.Len(), ra.Live(), rb.Len(), rb.Live())
	}
	for r := 0; r < ra.Len(); r++ {
		if ra.Deleted(r) != rb.Deleted(r) {
			t.Fatalf("row %d tombstone diverges", r)
		}
		if ra.Deleted(r) {
			continue
		}
		for c := 0; c < ra.Schema().Len(); c++ {
			if !ra.Value(r, c).Equal(rb.Value(r, c)) {
				t.Fatalf("cell (%d,%d) diverges: %v vs %v", r, c, ra.Value(r, c), rb.Value(r, c))
			}
		}
	}
}

// TestDurabilityCrashRecovery is the SDK-level crash differential: a
// durable session and an in-memory twin absorb the same mutation
// stream; the durable one "crashes" (dropped without Close or
// Snapshot) and is recovered from disk. The recovered session must
// match the twin exactly on version and contents — zero acknowledged
// mutations lost — with its partitioning warm-started, and solve to an
// objective within the quality bound.
func TestDurabilityCrashRecovery(t *testing.T) {
	dir := t.TempDir()
	base := durTable(t, 300, 1)
	twinBase := base.Subset("items", base.AllRows())

	dur, err := paq.Open(paq.Table(base), durOpts(paq.WithDurability(dir))...)
	if err != nil {
		t.Fatal(err)
	}
	twin, err := paq.Open(paq.Table(twinBase), durOpts()...)
	if err != nil {
		t.Fatal(err)
	}
	applyStream(t, 150, 7, dur, twin)
	// Crash: no Close, no Snapshot. Everything after the baseline
	// snapshot lives only in the WAL.
	dur = nil

	rec, err := paq.Open(nil, durOpts(paq.WithDurability(dir))...)
	if err != nil {
		t.Fatal(err)
	}
	defer rec.Close()
	sessionsEqual(t, rec, twin)

	ds := rec.DurStats()
	if !ds.Durable {
		t.Fatal("recovered session reports not durable")
	}
	if ds.ReplayedOps == 0 {
		t.Fatal("recovery replayed zero ops; the crash lost the WAL")
	}
	if ds.WarmPartitionings == 0 {
		t.Fatal("no partitioning warm-started from the snapshot")
	}
	if rb := rec.MaintStats().Rebuilds; rb != 0 {
		t.Fatalf("warm-start performed %d full repartitions, want 0", rb)
	}
	// The recovered partitioning was loaded, not rebuilt: its recorded
	// offline build time is zero.
	pi, err := rec.Partitioning()
	if err != nil {
		t.Fatal(err)
	}
	if pi.BuildMS != 0 {
		t.Fatalf("recovered partitioning reports a %gms offline build — it was rebuilt, not warm-started", pi.BuildMS)
	}

	objRec, objTwin := solveObjective(t, rec), solveObjective(t, twin)
	bound := rec.QualityBound(true)
	if tb := twin.QualityBound(true); tb > bound {
		bound = tb
	}
	lo, hi := objRec, objTwin
	if lo > hi {
		lo, hi = hi, lo
	}
	if lo <= 0 || hi/lo > bound {
		t.Fatalf("objectives diverge beyond quality bound %g: recovered %g vs twin %g", bound, objRec, objTwin)
	}

	// The recovered session keeps absorbing mutations durably.
	applyStream(t, 20, 9, rec, twin)
	sessionsEqual(t, rec, twin)
}

// TestDurabilityCloseFlushes verifies the drain path: Close writes a
// final snapshot, so a reopen replays nothing and loses nothing.
func TestDurabilityCloseFlushes(t *testing.T) {
	dir := t.TempDir()
	s, err := paq.Open(paq.Table(durTable(t, 100, 2)), durOpts(paq.WithDurability(dir))...)
	if err != nil {
		t.Fatal(err)
	}
	applyStream(t, 40, 3, s)
	wantVersion := s.Version()
	if s.Rel().Len() != s.Rel().Live() {
		// Close compacts tombstones away, which is itself one mutation.
		wantVersion++
	}
	wantLive := s.Rel().Live()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	rec, err := paq.Open(nil, durOpts(paq.WithDurability(dir))...)
	if err != nil {
		t.Fatal(err)
	}
	defer rec.Close()
	if got := rec.Version(); got != wantVersion {
		t.Fatalf("version after close+reopen = %d, want %d", got, wantVersion)
	}
	if got := rec.Rel().Live(); got != wantLive {
		t.Fatalf("live rows = %d, want %d", got, wantLive)
	}
	if ds := rec.DurStats(); ds.ReplayedOps != 0 {
		t.Fatalf("clean close still left %d ops in the WAL", ds.ReplayedOps)
	}
	// Close compacts: the snapshot image carries no tombstones.
	if rec.Rel().Len() != rec.Rel().Live() {
		t.Fatalf("reopened relation has %d tombstones", rec.Rel().Len()-rec.Rel().Live())
	}
}

// TestSessionCompactReclaims exercises the tombstone fix end to end:
// heavy deletes, then Compact shrinks the resident row count and the
// session keeps solving and mutating correctly.
func TestSessionCompactReclaims(t *testing.T) {
	s, err := paq.Open(paq.Table(durTable(t, 400, 4)), durOpts()...)
	if err != nil {
		t.Fatal(err)
	}
	objBefore := solveObjective(t, s)
	rows := s.Rel().AllRows()
	if _, err := s.DeleteRows(rows[200:]); err != nil {
		t.Fatal(err)
	}
	if got := s.Rel().Len(); got != 400 {
		t.Fatalf("Len = %d before compact, want 400", got)
	}
	reclaimed, err := s.Compact()
	if err != nil {
		t.Fatal(err)
	}
	if reclaimed != 200 {
		t.Fatalf("reclaimed %d rows, want 200", reclaimed)
	}
	if got := s.Rel().Len(); got != 200 {
		t.Fatalf("Len = %d after compact, want 200 (memory not reclaimed)", got)
	}
	// Second compact is a no-op.
	if reclaimed, err = s.Compact(); err != nil || reclaimed != 0 {
		t.Fatalf("second Compact = (%d, %v), want (0, nil)", reclaimed, err)
	}
	// The session still solves (over fewer rows) and mutates.
	_ = objBefore
	_ = solveObjective(t, s)
	applyStream(t, 20, 5, s)
	if got := s.MaintStats().Rebuilds; got != 0 {
		t.Fatalf("compaction triggered %d repartitions, want 0", got)
	}
}

// TestCompactionsCountedOnSharedStore: clones share one store, so the
// compaction one of them ran is the number all of them report — a
// per-session counter left the clone (and paqld's /stats) at zero.
func TestCompactionsCountedOnSharedStore(t *testing.T) {
	s, err := paq.Open(paq.Table(durTable(t, 120, 6)), durOpts(paq.WithDurability(t.TempDir()))...)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	clone, err := s.Clone()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.DeleteRows(s.Rel().AllRows()[:30]); err != nil {
		t.Fatal(err)
	}
	if reclaimed, err := s.Compact(); err != nil || reclaimed != 30 {
		t.Fatalf("Compact = (%d, %v), want (30, nil)", reclaimed, err)
	}
	for name, sess := range map[string]*paq.Session{"original": s, "clone": clone} {
		if got := sess.DurStats().Compactions; got != 1 {
			t.Errorf("%s: compactions = %d, want 1", name, got)
		}
	}
}

// TestDurabilityCorruptWALDetected flips a byte in a committed WAL
// record: recovery must fail with the typed paq.ErrCorrupt, not panic
// and not silently drop data.
func TestDurabilityCorruptWALDetected(t *testing.T) {
	dir := t.TempDir()
	s, err := paq.Open(paq.Table(durTable(t, 50, 6)), durOpts(paq.WithDurability(dir))...)
	if err != nil {
		t.Fatal(err)
	}
	applyStream(t, 10, 8, s)
	// Crash without Close, then corrupt the middle of the WAL.
	walPath := filepath.Join(dir, "wal.paqlog")
	data, err := os.ReadFile(walPath)
	if err != nil {
		t.Fatal(err)
	}
	if len(data) < 40 {
		t.Fatalf("WAL unexpectedly small: %d bytes", len(data))
	}
	data[20] ^= 0xFF
	if err := os.WriteFile(walPath, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := paq.Open(nil, durOpts(paq.WithDurability(dir))...); !errors.Is(err, paq.ErrCorrupt) {
		t.Fatalf("Open over corrupt WAL = %v, want ErrCorrupt", err)
	}
}

// TestOpenNilSourceWithoutState keeps the nil-source contract: without
// durable state to recover, Open must fail cleanly.
func TestOpenNilSourceWithoutState(t *testing.T) {
	if _, err := paq.Open(nil, paq.WithDurability(t.TempDir())); err == nil {
		t.Fatal("Open(nil) over an empty store succeeded")
	}
	if _, err := paq.Open(nil); err == nil {
		t.Fatal("Open(nil) succeeded")
	}
}

// TestPoisonedAfterFailedSnapshot: a compaction whose snapshot cannot
// be written leaves memory diverged from the durable base, so the
// session must refuse further mutations (never acknowledge what
// recovery could not rebuild) until a snapshot succeeds and re-roots
// the base.
func TestPoisonedAfterFailedSnapshot(t *testing.T) {
	dir := t.TempDir()
	s, err := paq.Open(paq.Table(durTable(t, 120, 11)), durOpts(paq.WithDurability(dir))...)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if _, err := s.DeleteRows(s.Rel().AllRows()[:30]); err != nil {
		t.Fatal(err)
	}
	// Block the snapshot temp file with a directory (works even as
	// root, where chmod-based read-only dirs don't).
	block := filepath.Join(dir, "snapshot.paqsnap.tmp")
	if err := os.Mkdir(block, 0o755); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Compact(); err == nil {
		t.Fatal("Compact succeeded with an unwritable snapshot")
	}
	if !s.DurStats().Poisoned {
		t.Fatal("session not poisoned after compaction outran its snapshot")
	}
	rng := rand.New(rand.NewSource(1))
	if _, _, err := s.InsertRows([][]relation.Value{durRow(rng)}); err == nil {
		t.Fatal("poisoned session acknowledged a mutation it could not recover")
	}
	// Unblock: a successful snapshot re-roots the base and lifts the
	// refusal.
	if err := os.Remove(block); err != nil {
		t.Fatal(err)
	}
	if err := s.Snapshot(); err != nil {
		t.Fatal(err)
	}
	if s.DurStats().Poisoned {
		t.Fatal("still poisoned after a successful snapshot")
	}
	if _, _, err := s.InsertRows([][]relation.Value{durRow(rng)}); err != nil {
		t.Fatalf("mutation after recovery snapshot: %v", err)
	}
	wantLive := s.Rel().Live()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	rec, err := paq.Open(nil, durOpts(paq.WithDurability(dir))...)
	if err != nil {
		t.Fatal(err)
	}
	defer rec.Close()
	if got := rec.Rel().Live(); got != wantLive {
		t.Fatalf("recovered %d live rows, want %d", got, wantLive)
	}
}

// TestCloseAffectsClones: clones share the store, so Close anywhere
// stops persistence everywhere — mutations fail loudly instead of
// going silently un-persisted, reads keep working, and Close is
// idempotent.
func TestCloseAffectsClones(t *testing.T) {
	dir := t.TempDir()
	s, err := paq.Open(paq.Table(durTable(t, 60, 12)), durOpts(paq.WithDurability(dir))...)
	if err != nil {
		t.Fatal(err)
	}
	clone, err := s.Clone()
	if err != nil {
		t.Fatal(err)
	}
	if err := clone.Close(); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	if _, _, err := s.InsertRows([][]relation.Value{durRow(rng)}); err == nil {
		t.Fatal("mutation on the sibling of a closed session was acknowledged but cannot persist")
	}
	_ = solveObjective(t, s) // reads and solves still work
	if err := s.Close(); err != nil {
		t.Fatalf("second Close not idempotent: %v", err)
	}
}

// TestEmptyRecoveredStateRejected: a store whose last snapshot holds
// zero rows reopens to nothing a query could run against; Open must
// reject it like it rejects an empty source.
func TestEmptyRecoveredStateRejected(t *testing.T) {
	dir := t.TempDir()
	s, err := paq.Open(paq.Table(durTable(t, 20, 13)), durOpts(paq.WithDurability(dir))...)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.DeleteRows(s.Rel().AllRows()); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := paq.Open(nil, durOpts(paq.WithDurability(dir))...); err == nil {
		t.Fatal("Open accepted a recovered empty relation")
	}
}

// TestCompactRemapsClonePartitionings: a clone partitioning on another
// attribute set holds its own partitioning over the shared relation;
// mutations must maintain it and Compact must remap it (and must not
// double-remap the partitionings shared with other clones).
func TestCompactRemapsClonePartitionings(t *testing.T) {
	s, err := paq.Open(paq.Table(durTable(t, 400, 14)), durOpts()...)
	if err != nil {
		t.Fatal(err)
	}
	// Other attribute set ⇒ its own partitioning; same options ⇒ shared one.
	private, err := s.Clone(paq.WithPartitionAttrs("cost"))
	if err != nil {
		t.Fatal(err)
	}
	shared, err := s.Clone()
	if err != nil {
		t.Fatal(err)
	}
	objP := solveObjective(t, private) // over the clone's own partitioning
	objS := solveObjective(t, shared)

	rows := s.Rel().AllRows()
	if _, err := s.DeleteRows(rows[100:300]); err != nil {
		t.Fatal(err)
	}
	reclaimed, err := s.Compact()
	if err != nil {
		t.Fatal(err)
	}
	if reclaimed != 200 {
		t.Fatalf("reclaimed %d rows, want 200", reclaimed)
	}
	// Every sibling keeps solving over the renumbered relation; a stale
	// (un-remapped) partitioning would index out of range or pick
	// deleted tuples.
	for _, sess := range []*paq.Session{s, private, shared} {
		_ = solveObjective(t, sess)
	}
	// And mutations keep maintaining all of them.
	applyStream(t, 30, 15, s)
	for _, sess := range []*paq.Session{s, private, shared} {
		_ = solveObjective(t, sess)
	}
	_, _ = objP, objS
}

// TestConcurrentMutationsGroupCommit hammers one durable session from
// many goroutines while snapshots run concurrently: every acknowledged
// insert must survive a crash-reopen, commits staged before a snapshot
// truncation must still be acknowledged (superseded, not lost), and
// the WAL counters must stay coherent.
func TestConcurrentMutationsGroupCommit(t *testing.T) {
	dir := t.TempDir()
	s, err := paq.Open(paq.Table(durTable(t, 100, 16)), durOpts(paq.WithDurability(dir))...)
	if err != nil {
		t.Fatal(err)
	}
	const writers, each = 8, 12
	var wg sync.WaitGroup
	for g := 0; g < writers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(100 + g)))
			for i := 0; i < each; i++ {
				if _, _, err := s.InsertRows([][]relation.Value{durRow(rng)}); err != nil {
					t.Errorf("writer %d insert %d: %v", g, i, err)
					return
				}
			}
		}(g)
	}
	// Concurrent snapshots truncate the WAL under the writers' feet;
	// pending commits must be superseded cleanly, never deadlock.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 5; i++ {
			if err := s.Snapshot(); err != nil {
				t.Errorf("snapshot %d: %v", i, err)
				return
			}
		}
	}()
	wg.Wait()

	d := s.DurStats()
	if d.WALSyncs > d.WALAppends {
		t.Errorf("syncs %d > appends %d", d.WALSyncs, d.WALAppends)
	}
	want := 100 + writers*each
	// Crash (no Close) and recover: zero acknowledged-insert loss.
	s = nil
	rec, err := paq.Open(nil, durOpts(paq.WithDurability(dir))...)
	if err != nil {
		t.Fatal(err)
	}
	defer rec.Close()
	if got := rec.Rel().Live(); got != want {
		t.Fatalf("recovered %d live rows, want %d (acknowledged inserts lost)", got, want)
	}
}
