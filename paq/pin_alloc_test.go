package paq

import (
	"context"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/partition"
	"repro/internal/relation"
	"repro/internal/reltest"
)

const pinAllocQuery = `
SELECT PACKAGE(I) AS P FROM items I REPEAT 0
SUCH THAT COUNT(P.*) = 3 AND SUM(P.cost) <= 20
MAXIMIZE SUM(P.gain)`

func pinFixture(t *testing.T, opts ...Option) (*Session, *Stmt) {
	t.Helper()
	rel := relation.New("items", reltest.Schema(
		relation.Column{Name: "cost", Type: relation.Float},
		relation.Column{Name: "gain", Type: relation.Float},
	))
	for i := 0; i < 120; i++ {
		reltest.Append(rel, relation.F(1+float64(i%9)), relation.F(1+float64((i*7)%11)))
	}
	s, err := Open(Table(rel), opts...)
	if err != nil {
		t.Fatal(err)
	}
	stmt, err := s.Prepare(pinAllocQuery)
	if err != nil {
		t.Fatal(err)
	}
	return s, stmt
}

// Pinning an execution at steady state (no mutation since the last
// pin) must allocate nothing: the generation's snapshot — and for
// SketchRefine its partitioning view — are reused, so the pin is a
// read-lock acquisition, a pointer load and a read or two under fillMu. This is what makes
// "solves never block ingest" cheap enough to do on every Execute.
func TestPinExecSteadyStateAllocateZero(t *testing.T) {
	run := func(t *testing.T, s *Session, stmt *Stmt) {
		t.Helper()
		s.pinExec(stmt, nil) // warm the caches
		if avg := testing.AllocsPerRun(200, func() {
			s.pinExec(stmt, nil)
		}); avg != 0 {
			t.Errorf("pinExec allocates %.1f per call at steady state, want 0", avg)
		}

		// One mutation moves the version: the first re-pin pays for the
		// fresh snapshot (and view), then steady state resumes at zero.
		if _, err := s.DeleteRows([]int{0}); err != nil {
			t.Fatal(err)
		}
		s.pinExec(stmt, nil)
		if avg := testing.AllocsPerRun(200, func() {
			s.pinExec(stmt, nil)
		}); avg != 0 {
			t.Errorf("pinExec allocates %.1f per call after re-warming, want 0", avg)
		}
	}

	t.Run("direct", func(t *testing.T) {
		s, stmt := pinFixture(t, WithMethod(MethodDirect))
		run(t, s, stmt)
	})
	t.Run("sketchrefine", func(t *testing.T) {
		s, stmt := pinFixture(t,
			WithMethod(MethodSketchRefine), WithTauTuples(40), WithWarmPartitioning())
		run(t, s, stmt)
	})
}

// Prepare plans from the base relation's size, not its rows: on a query
// with no filter it allocates the same at ten times the rows.
func TestPrepareAllocationIndependentOfRows(t *testing.T) {
	bytesPerPrepare := func(n int) uint64 {
		rel := relation.New("items", reltest.Schema(
			relation.Column{Name: "cost", Type: relation.Float},
			relation.Column{Name: "gain", Type: relation.Float},
		))
		for i := 0; i < n; i++ {
			reltest.Append(rel, relation.F(1+float64(i%9)), relation.F(1+float64((i*7)%11)))
		}
		s, err := Open(Table(rel), WithMethod(MethodDirect))
		if err != nil {
			t.Fatal(err)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		const reps = 10
		for i := 0; i < reps; i++ {
			st, err := s.Prepare(pinAllocQuery)
			if err != nil {
				t.Fatal(err)
			}
			if st.Plan().Variables != n {
				t.Fatalf("plan counts %d variables over %d rows", st.Plan().Variables, n)
			}
		}
		runtime.ReadMemStats(&after)
		return (after.TotalAlloc - before.TotalAlloc) / reps
	}
	small, large := bytesPerPrepare(2_000), bytesPerPrepare(20_000)
	if large > small+4096 {
		t.Errorf("Prepare allocates %d bytes over 2 000 rows and %d over 20 000", small, large)
	}
}

// An idle filtered statement must not keep the snapshot it last ran on
// alive: a bound predicate lasts one call, so once a mutation has given
// head its own copy of a column and a later pin has replaced the
// dataset's cached snapshot, the old snapshot and the column array only it
// held are garbage (compiled predicates used to cache the last relation
// they ran on: 4.4 MB at this size).
func TestIdleFilteredStmtDoesNotPinSnapshot(t *testing.T) {
	const n = 50_000
	rel := relation.New("items", reltest.Schema(
		relation.Column{Name: "cost", Type: relation.Float},
		relation.Column{Name: "gain", Type: relation.Float},
	))
	for i := 0; i < n; i++ {
		reltest.Append(rel, relation.F(1+float64(i%997)), relation.F(1+float64((i*7)%11)))
	}
	s, err := Open(Table(rel), WithMethod(MethodDirect))
	if err != nil {
		t.Fatal(err)
	}
	filtered, err := s.Prepare(`
SELECT PACKAGE(I) AS P FROM items I REPEAT 0 WHERE I.cost <= 3 AND I.gain + 1 > 2
SUCH THAT COUNT(P.*) = 3 AND MAX(P.gain) <= 9
MAXIMIZE SUM(P.gain)`)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := filtered.Execute(context.Background()); err != nil {
		t.Fatal(err)
	}

	collected := make(chan string, 2)
	snap := s.d.cur.Load().snap
	runtime.SetFinalizer(snap, func(*relation.Relation) { collected <- "snapshot" })
	runtime.SetFinalizer(&snap.FloatColumn(0)[0], func(*float64) { collected <- "cost column" })
	snap = nil

	// The update makes head clone "cost"; the next pin drops the
	// dataset's own reference to the old snapshot.
	if _, err := s.UpdateRows([]int{0}, [][]relation.Value{{relation.F(2), relation.F(5)}}); err != nil {
		t.Fatal(err)
	}
	other, err := s.Prepare(pinAllocQuery)
	if err != nil {
		t.Fatal(err)
	}
	s.pinExec(other, nil)
	for got := 0; got < 2; {
		runtime.GC()
		select {
		case <-collected:
			got++
		case <-time.After(2 * time.Second):
			t.Fatalf("the superseded snapshot is still reachable (%d of 2 finalizers ran)", got)
		}
	}
	runtime.KeepAlive(filtered)
}

// A copy-on-write clone keeps its column's spare capacity, so the insert
// batch that follows an update batch — with a pinned snapshot alive, as a
// serving session always has — allocates for the rows it appends, not for
// the table (each cloned column used to be re-grown by its first Append).
func TestInsertAfterUpdateAllocationIndependentOfRows(t *testing.T) {
	const batch = 100
	bytesPerInsert := func(n int) uint64 {
		rel := relation.New("items", reltest.Schema(
			relation.Column{Name: "cost", Type: relation.Float},
			relation.Column{Name: "gain", Type: relation.Float},
		))
		for i := 0; i < n || cap(rel.FloatColumn(0))-rel.Len() < 2*batch; i++ {
			reltest.Append(rel, relation.F(1+float64(i%9)), relation.F(1+float64((i*7)%11)))
		}
		s, err := Open(Table(rel), WithMethod(MethodDirect))
		if err != nil {
			t.Fatal(err)
		}
		stmt, err := s.Prepare(pinAllocQuery)
		if err != nil {
			t.Fatal(err)
		}
		s.pinExec(stmt, nil)
		if _, err := s.UpdateRows([]int{0}, [][]relation.Value{{relation.F(2), relation.F(5)}}); err != nil {
			t.Fatal(err)
		}
		rows := make([][]relation.Value, batch)
		for i := range rows {
			rows[i] = []relation.Value{relation.F(3), relation.F(4)}
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if _, _, err := s.InsertRows(rows); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	small, large := bytesPerInsert(2_000), bytesPerInsert(20_000)
	if large > small+4096 {
		t.Errorf("a %d-row insert after an update allocates %d bytes over 2 000 rows and %d over 20 000", batch, small, large)
	}
}

// Frozen views under load: a solve reads the view it pinned, lock-free,
// while the next batches edit the head's member lists in place. Every view
// kept from before a batch must stay element for element what it was, its
// R̃ bit for bit after every later batch, and pass CheckInvariants against
// its own snapshot, the head must pass its
// own after every batch — the first is an update, so the maintainer has
// to exist before the cells change — and the race detector must stay
// silent about the solver goroutine.
func TestViewsStayFrozenWhileBatchesApply(t *testing.T) {
	s, stmt := pinFixture(t, WithMethod(MethodSketchRefine), WithTauTuples(30), WithWarmPartitioning(), WithoutCache())
	var solved atomic.Int64
	stop, done := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		for {
			select {
			case <-stop:
				return
			default:
				if _, err := stmt.Execute(context.Background()); err == nil {
					solved.Add(1)
				}
			}
		}
	}()
	halt := sync.OnceFunc(func() { close(stop); <-done })
	defer halt()
	type kept struct {
		view *partition.Partitioning
		rows [][]int
		reps []uint64 // the bits of every cell of the view's R̃, row by row
	}
	repBits := func(v *partition.Partitioning) []uint64 {
		reps := v.Representatives()
		var bits []uint64
		for i := 0; i < reps.Len(); i++ {
			for c := 0; c < reps.Schema().Len(); c++ {
				bits = append(bits, math.Float64bits(reps.Float(i, c)))
			}
		}
		return bits
	}
	var views []kept
	rng := rand.New(rand.NewSource(3))
	vals := func(n int) [][]relation.Value {
		out := make([][]relation.Value, n)
		for i := range out {
			out[i] = []relation.Value{relation.F(1 + float64(rng.Intn(9))), relation.F(1 + float64(rng.Intn(40)))}
		}
		return out
	}
	const batches = 60
	for batch := 0; batch < batches; batch++ {
		if batch == batches-1 {
			// A loaded host can starve the solver goroutine for the
			// whole run: give it, within a bound, one finished solve
			// before the last batch.
			for deadline := time.Now().Add(10 * time.Second); solved.Load() == 0 && time.Now().Before(deadline); {
				time.Sleep(time.Millisecond)
			}
		}
		p := s.pinExec(stmt, nil)
		v := kept{view: p.view, reps: repBits(p.view)}
		for _, g := range p.view.Groups {
			v.rows = append(v.rows, slices.Clone(g.Rows))
		}
		views = append(views, v)
		live := slices.Clone(p.snap.AllRows())
		rng.Shuffle(len(live), func(i, j int) { live[i], live[j] = live[j], live[i] })
		var err error
		switch batch % 3 {
		case 0:
			_, err = s.UpdateRows(live[:20], vals(20))
		case 1:
			_, _, err = s.InsertRows(vals(12))
		default:
			_, err = s.DeleteRows(live[:10])
		}
		if err == nil && batch%20 == 19 {
			_, err = s.Compact()
		}
		if err != nil {
			t.Fatalf("batch %d: %v", batch, err)
		}
		s.readMaintainers(func(m *partition.Maintainer) {
			if err := m.CheckInvariants(); err != nil {
				t.Fatalf("batch %d: %v", batch, err)
			}
		})
		for i, v := range views {
			if !slices.Equal(repBits(v.view), v.reps) {
				t.Fatalf("batch %d: view %d's R̃ changed after it was pinned", batch, i)
			}
		}
	}
	halt()
	if solved.Load() == 0 {
		t.Error("no solve finished while the batches applied")
	}
	if ms := s.MaintStats(); ms.Updates != 20*20 || ms.Splits == 0 {
		t.Errorf("maintenance saw %d updated rows and %d splits", ms.Updates, ms.Splits)
	}
	for i, v := range views {
		for gid, g := range v.view.Groups {
			if !slices.Equal(g.Rows, v.rows[gid]) {
				t.Fatalf("view %d: group %d's member list changed after it was pinned", i, gid)
			}
		}
		if err := v.view.CheckInvariants(); err != nil {
			t.Fatalf("view %d: %v", i, err)
		}
	}
}
