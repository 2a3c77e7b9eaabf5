package paq

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"testing"
	"time"

	"repro/internal/partition"
	"repro/internal/relation"
	"repro/internal/reltest"
)

// memoQuery is a filtered SketchRefine statement: WHERE and MAX(P.gain)
// both lower to base filters, so its eligible rows are a selection over
// the member lists — the layout a statement keeps between executions.
const memoQuery = `
SELECT PACKAGE(I) AS P FROM items I REPEAT 0 WHERE I.cost <= 5
SUCH THAT COUNT(P.*) = 3 AND SUM(P.cost) <= 12 AND MAX(P.gain) <= 9
MAXIMIZE SUM(P.gain)`

// memoFixture opens a SketchRefine session over n items rows with the
// given options and prepares memoQuery on it. The unused column w keeps
// the statement's attribute set apart from the session-wide one.
func memoFixture(t *testing.T, n int, opts ...Option) (*Session, *Stmt) {
	t.Helper()
	rel := relation.New("items", reltest.Schema(
		relation.Column{Name: "cost", Type: relation.Float},
		relation.Column{Name: "gain", Type: relation.Float},
		relation.Column{Name: "w", Type: relation.Float},
	))
	for i := 0; i < n; i++ {
		reltest.Append(rel, relation.F(1+float64(i%9)), relation.F(1+float64((i*7)%13)), relation.F(float64(i%5)))
	}
	s, err := Open(Table(rel), append([]Option{WithMethod(MethodSketchRefine)}, opts...)...)
	if err != nil {
		t.Fatal(err)
	}
	stmt, err := s.Prepare(memoQuery)
	if err != nil {
		t.Fatal(err)
	}
	return s, stmt
}

// reusedLayout executes st traced and reports the result and whether its
// prepare span reused the statement's layout.
func reusedLayout(t *testing.T, st *Stmt, opts ...ExecOption) (*Result, bool) {
	t.Helper()
	res, err := st.Execute(context.Background(), append(opts, WithTrace())...)
	if err != nil {
		t.Fatal(err)
	}
	var find func(n *TraceNode) *TraceNode
	find = func(n *TraceNode) *TraceNode {
		if n.Name == "prepare" {
			return n
		}
		for _, c := range n.Children {
			if p := find(c); p != nil {
				return p
			}
		}
		return nil
	}
	p := find(res.Trace())
	if p == nil {
		t.Fatal("the trace has no prepare span")
	}
	reused, ok := p.Attrs["reused"].(bool)
	if !ok || p.Attrs["filtered"] != true {
		t.Fatalf("prepare attrs %v, want filtered and a reused flag", p.Attrs)
	}
	return res, reused
}

// sameAnswer fails unless got and want are the same package: rows,
// multiplicities and objective bits.
func sameAnswer(t *testing.T, what string, got, want *Result) {
	t.Helper()
	if !slices.Equal(got.Rows, want.Rows) || !slices.Equal(got.Mult, want.Mult) ||
		math.Float64bits(got.Objective) != math.Float64bits(want.Objective) {
		t.Fatalf("%s: rows %v mult %v objective %v; a fresh statement gives %v %v %v",
			what, got.Rows, got.Mult, got.Objective, want.Rows, want.Mult, want.Objective)
	}
}

// fresh prepares memoQuery anew at the session's current version and
// executes it once.
func fresh(t *testing.T, s *Session) *Result {
	t.Helper()
	st, err := s.Prepare(memoQuery)
	if err != nil {
		t.Fatal(err)
	}
	res, err := st.Execute(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestLayoutMemoFollowsVersions is the differential across versions: a
// stream of insert/delete/update batches (and compactions) moves rows
// across the filter's boundary and splits and merges groups, and after
// every batch one long-lived statement answers exactly as a statement
// prepared at that version does — first laying its rows out afresh, then
// from its layout.
func TestLayoutMemoFollowsVersions(t *testing.T) {
	s, stmt := memoFixture(t, 300, WithTauTuples(30), WithoutCache())
	rng := rand.New(rand.NewSource(7))
	vals := func(n int) [][]relation.Value {
		out := make([][]relation.Value, n)
		for i := range out {
			out[i] = []relation.Value{relation.F(1 + float64(rng.Intn(9))), relation.F(1 + float64(rng.Intn(13))), relation.F(float64(rng.Intn(5)))}
		}
		return out
	}
	for batch := 0; batch < 45; batch++ {
		want := fresh(t, s)
		for pass, wantReused := range []bool{false, true} {
			got, reused := reusedLayout(t, stmt)
			if reused != wantReused {
				t.Fatalf("batch %d, execution %d at version %d: reused = %v", batch, pass, s.Version(), reused)
			}
			sameAnswer(t, fmt.Sprintf("batch %d, execution %d", batch, pass), got, want)
		}
		var live []int
		s.View(func(rel *relation.Relation) { live = slices.Clone(rel.AllRows()) })
		rng.Shuffle(len(live), func(i, j int) { live[i], live[j] = live[j], live[i] })
		var err error
		switch batch % 3 {
		case 0:
			_, err = s.UpdateRows(live[:20], vals(20))
		case 1:
			_, _, err = s.InsertRows(vals(25))
		default:
			_, err = s.DeleteRows(live[:30])
		}
		if err == nil && batch%10 == 9 {
			_, err = s.Compact()
		}
		if err != nil {
			t.Fatalf("batch %d: %v", batch, err)
		}
	}
	if ms := s.MaintStats(); ms.Splits == 0 || ms.Merges == 0 {
		t.Fatalf("stream too tame to test against: %d splits, %d merges", ms.Splits, ms.Merges)
	}
}

// TestLayoutMemoMissesOnRebuiltView: a partitioning rebuilt at the same
// version is a new view — here, after mutations, a different grouping of
// the same rows — so the next execution lays its rows out again rather
// than reuse a layout of the replaced partitioning's groups.
func TestLayoutMemoMissesOnRebuiltView(t *testing.T) {
	s, stmt := memoFixture(t, 300, WithTauTuples(30), WithoutCache())
	if _, reused := reusedLayout(t, stmt); reused {
		t.Fatal("the first execution reused a layout")
	}
	rows := make([][]relation.Value, 60)
	for i := range rows {
		rows[i] = []relation.Value{relation.F(2), relation.F(float64(1 + i%9)), relation.F(1)}
	}
	if _, _, err := s.InsertRows(rows); err != nil {
		t.Fatal(err)
	}
	if _, err := s.DeleteRows([]int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}); err != nil {
		t.Fatal(err)
	}
	reusedLayout(t, stmt)
	before, reused := reusedLayout(t, stmt)
	if !reused {
		t.Fatal("a second execution over one view laid its rows out again")
	}
	version, maintained := s.Version(), stmt.layout.Load()

	// A fresh build of the statement's set becomes the entry's head, with
	// no maintainer and no cached view yet, as a first build leaves it.
	e := stmt.entry
	s.d.dataMu.Lock()
	p, err := partition.Build(s.d.rel, partition.Options{Attrs: e.part.Load().Attrs, SizeThreshold: s.tau(), RadiusLimit: s.cfg.radius, Workers: s.cfg.workers})
	if err == nil {
		e.part.Store(p)
		e.maint = nil
	}
	s.d.dataMu.Unlock()
	if err != nil {
		t.Fatal(err)
	}
	after, reused := reusedLayout(t, stmt)
	if reused || s.Version() != version || stmt.layout.Load() == maintained {
		t.Fatalf("after the rebuild at version %d: reused = %v, version %d, layout replaced = %v",
			version, reused, s.Version(), stmt.layout.Load() != maintained)
	}
	sameAnswer(t, "rebuilt view", after, fresh(t, s))
	if after.Version != before.Version {
		t.Fatalf("the rebuild moved the version %d → %d", before.Version, after.Version)
	}
}

// TestLayoutMemoBypassedByRowSubsets: a WithRows execution runs over its
// own restricted view, so it neither reads the statement's layout nor
// fills or replaces it.
func TestLayoutMemoBypassedByRowSubsets(t *testing.T) {
	s, stmt := memoFixture(t, 300, WithTauTuples(30), WithoutCache())
	var subset []int
	s.View(func(rel *relation.Relation) {
		for i, r := range rel.AllRows() {
			if i%2 == 0 {
				subset = append(subset, r)
			}
		}
	})
	if _, reused := reusedLayout(t, stmt, WithRows(subset)); reused || stmt.layout.Load() != nil {
		t.Fatalf("a row-subset execution on a fresh statement: reused = %v, layout filled = %v", reused, stmt.layout.Load() != nil)
	}
	reusedLayout(t, stmt)
	kept := stmt.layout.Load()
	if kept == nil {
		t.Fatal("a whole-relation execution kept no layout")
	}
	if _, reused := reusedLayout(t, stmt, WithRows(subset)); reused || stmt.layout.Load() != kept {
		t.Fatalf("a row-subset execution after a whole one: reused = %v, layout replaced = %v", reused, stmt.layout.Load() != kept)
	}
	if _, reused := reusedLayout(t, stmt); !reused {
		t.Fatal("the row-subset execution cost the statement its layout")
	}
}

// TestLayoutMemoDoesNotPinSnapshot is TestIdleFilteredStmtDoesNotPinSnapshot
// for a filtered SketchRefine statement, whose layout outlives the solve:
// it holds row ids and a view serial only, so once a mutation has given
// head its own copy of a column and a later pin has replaced the cached
// snapshot and view, the old snapshot, the old view and the column array
// only they held are garbage while the statement sits idle.
func TestLayoutMemoDoesNotPinSnapshot(t *testing.T) {
	s, stmt := memoFixture(t, 50_000, WithTauTuples(2_000))
	if _, err := stmt.Execute(context.Background()); err != nil {
		t.Fatal(err)
	}
	if stmt.layout.Load() == nil {
		t.Fatal("the execution kept no layout")
	}

	collected := make(chan string, 3)
	snap := s.d.cur.Load().snap
	view := s.d.cur.Load().views[stmt.entry.part.Load()]
	runtime.SetFinalizer(snap, func(*relation.Relation) { collected <- "snapshot" })
	runtime.SetFinalizer(view, func(*partition.Partitioning) { collected <- "view" })
	runtime.SetFinalizer(&snap.FloatColumn(0)[0], func(*float64) { collected <- "cost column" })
	snap, view = nil, nil

	// The update makes head clone "cost"; the next pin drops the
	// dataset's own references to the old snapshot and view.
	if _, err := s.UpdateRows([]int{0}, [][]relation.Value{{relation.F(2), relation.F(5), relation.F(0)}}); err != nil {
		t.Fatal(err)
	}
	s.pinExec(stmt, nil)
	for got := 0; got < 3; {
		runtime.GC()
		select {
		case <-collected:
			got++
		case <-time.After(2 * time.Second):
			t.Fatalf("the superseded snapshot or view is still reachable (%d of 3 finalizers ran)", got)
		}
	}
	runtime.KeepAlive(stmt)
}

// TestLayoutMemoRacesInserts: one filtered statement executed many times
// at once on two workers shares its layout while inserts move the version
// under it; under -race nothing reads a layout another execution is still
// writing, and the statement then answers as a fresh one does.
func TestLayoutMemoRacesInserts(t *testing.T) {
	s, stmt := memoFixture(t, 300, WithTauTuples(30), WithoutCache(), WithWorkers(2))
	stmts := make([]*Stmt, 8)
	for i := range stmts {
		stmts[i] = stmt
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 40; i++ {
			row := []relation.Value{relation.F(float64(1 + i%9)), relation.F(float64(1 + i%13)), relation.F(2)}
			if _, _, err := s.InsertRows([][]relation.Value{row}); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	for round := 0; round < 10; round++ {
		for i, res := range s.ExecuteBatch(context.Background(), stmts) {
			if res.Err != nil && !errors.Is(res.Err, ErrInfeasible) {
				t.Fatalf("round %d, execution %d: %v", round, i, res.Err)
			}
		}
	}
	wg.Wait()
	got, err := stmt.Execute(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	sameAnswer(t, "after the race", got, fresh(t, s))
}
