package paq

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/lp"
	"repro/internal/partition"
	"repro/internal/relation"
	"repro/internal/reltest"
)

// cellsQuery is an unfiltered SketchRefine statement: every refine is over
// a group's whole member list, so it reads the view's group columns.
const cellsQuery = `
SELECT PACKAGE(I) AS P FROM items I REPEAT 0
SUCH THAT COUNT(P.*) = 3 AND SUM(P.cost) <= 12 AND AVG(P.gain) >= 4
AND SUM(P.n) + 2 * SUM(P.cost) <= 60
MAXIMIZE SUM(P.gain)`

// cellsRow is one items row: Float cost and gain, Int n, Float w.
func cellsRow(rng *rand.Rand) []relation.Value {
	return []relation.Value{relation.F(1 + float64(rng.Intn(9))), relation.F(1 + float64(rng.Intn(13))),
		relation.I(int64(rng.Intn(20))), relation.F(float64(rng.Intn(5)))}
}

// cellsFixture opens a SketchRefine session over n items rows and
// prepares cellsQuery on it.
func cellsFixture(t *testing.T, n int, opts ...Option) (*Session, *Stmt, *rand.Rand) {
	t.Helper()
	rel := relation.New("items", reltest.Schema(
		relation.Column{Name: "cost", Type: relation.Float},
		relation.Column{Name: "gain", Type: relation.Float},
		relation.Column{Name: "n", Type: relation.Int},
		relation.Column{Name: "w", Type: relation.Float},
	))
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < n; i++ {
		reltest.Append(rel, cellsRow(rng)...)
	}
	s, err := Open(Table(rel), append([]Option{WithMethod(MethodSketchRefine)}, opts...)...)
	if err != nil {
		t.Fatal(err)
	}
	stmt, err := s.Prepare(cellsQuery)
	if err != nil {
		t.Fatal(err)
	}
	return s, stmt, rng
}

// mutate applies one insert, delete or update batch of size k, by turn.
func mutate(t *testing.T, s *Session, rng *rand.Rand, batch, k int) {
	t.Helper()
	var live []int
	s.View(func(rel *relation.Relation) { live = slices.Clone(rel.AllRows()) })
	rng.Shuffle(len(live), func(i, j int) { live[i], live[j] = live[j], live[i] })
	rows := make([][]relation.Value, k)
	for i := range rows {
		rows[i] = cellsRow(rng)
	}
	var err error
	switch batch % 3 {
	case 0:
		_, err = s.UpdateRows(live[:k], rows)
	case 1:
		_, _, err = s.InsertRows(rows)
	default:
		_, err = s.DeleteRows(live[:k])
	}
	if err != nil {
		t.Fatalf("batch %d: %v", batch, err)
	}
}

// refineSpans executes st traced and returns its refine_group spans'
// cell sources and the columns they filled in total.
func refineSpans(t *testing.T, st *Stmt, opts ...ExecOption) (sources []string, filled int64) {
	t.Helper()
	res, err := st.Execute(context.Background(), append(opts, WithTrace())...)
	if err != nil {
		t.Fatal(err)
	}
	var walk func(n *TraceNode)
	walk = func(n *TraceNode) {
		if n.Name == "refine_group" {
			sources = append(sources, n.Attrs["cells"].(string))
			filled += n.Attrs["columns_filled"].(int64)
		}
		for _, c := range n.Children {
			walk(c)
		}
	}
	walk(res.Trace())
	if len(sources) == 0 {
		t.Fatal("the execution refined no group")
	}
	return sources, filled
}

// TestGroupCellsBuildBitIdentical: for every coefficient kind, the ILP
// built over a group from the pinned view's columns equals, bit for bit,
// the one gathered from the snapshot by row id — on the first view, and
// on each view after insert, delete and update batches have moved rows
// between groups and rewritten cells (a column kept across views, or
// keyed on the gid alone, reads stale cells here).
func TestGroupCellsBuildBitIdentical(t *testing.T) {
	s, stmt, rng := cellsFixture(t, 400, WithTauTuples(40), WithoutCache())
	cost, gain, n := core.AttrCoef{Attr: "cost"}, core.AttrCoef{Attr: "gain"}, core.AttrCoef{Attr: "n"}
	kinds := []core.Coef{
		core.UnitCoef{}, cost, n,
		core.ShiftedAttrCoef{Attr: "gain", Shift: -4.25},
		core.ScaledCoef{W: 0.3, Inner: n},
		core.SumCoef{Parts: []core.Coef{cost, core.ScaledCoef{W: 2, Inner: n}, core.UnitCoef{}}},
		core.CondCoef{Pred: relation.NewCompare("cost", relation.LE, relation.F(5)), Inner: gain},
	}
	for batch := 0; batch < 12; batch++ {
		// The execution's refines fill some columns before the check.
		if _, err := stmt.Execute(context.Background()); err != nil && !errors.Is(err, ErrInfeasible) {
			t.Fatal(err)
		}
		pin := s.pinExec(stmt, nil)
		for gid, g := range pin.view.Groups {
			for _, k := range kinds {
				spec := &core.Spec{Rel: pin.snap, Constraints: []core.Constraint{{Coef: k, Op: lp.LE, RHS: 1}},
					Objective: &core.Objective{Coef: k}}
				want, err := core.BuildILP(spec, g.Rows, nil)
				if err != nil {
					t.Fatal(err)
				}
				cached := *spec
				cached.Cells = func(col int) []float64 {
					cells, _ := pin.view.GroupColumn(gid, col)
					return cells
				}
				got, err := core.BuildILP(&cached, g.Rows, nil)
				if err != nil {
					t.Fatal(err)
				}
				for _, rows := range [][2][]float64{{got.LP.A[0], want.LP.A[0]}, {got.LP.C, want.LP.C}} {
					if !slices.EqualFunc(rows[0], rows[1], func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) }) {
						t.Fatalf("batch %d, group %d, %s: cached cells build %v, the snapshot %v", batch, gid, k, rows[0], rows[1])
					}
				}
			}
		}
		mutate(t, s, rng, batch, 30)
	}
}

// TestGroupCellsFilledOncePerView: the first execution over a view fills
// the group columns its refines read, a second over the same view reads
// them back and fills none, and the view a mutation brings starts empty.
func TestGroupCellsFilledOncePerView(t *testing.T) {
	s, stmt, rng := cellsFixture(t, 400, WithTauTuples(40), WithoutCache())
	for round := 0; round < 2; round++ {
		for pass := 0; pass < 2; pass++ {
			sources, filled := refineSpans(t, stmt)
			if slices.ContainsFunc(sources, func(c string) bool { return c != "view" }) {
				t.Fatalf("round %d, pass %d: refines read %v, want the view's cells", round, pass, sources)
			}
			if (filled > 0) != (pass == 0) {
				t.Fatalf("round %d, pass %d over one view filled %d columns", round, pass, filled)
			}
		}
		mutate(t, s, rng, 1, 10)
	}
}

// TestGroupCellsBypassed: heads and Restrict-ed views keep no columns,
// so a WithRows execution reads its cells from the relation.
func TestGroupCellsBypassed(t *testing.T) {
	s, stmt, _ := cellsFixture(t, 400, WithTauTuples(40), WithoutCache())
	var subset []int
	s.View(func(rel *relation.Relation) {
		for i, r := range rel.AllRows() {
			if i%2 == 0 {
				subset = append(subset, r)
			}
		}
	})
	sources, filled := refineSpans(t, stmt, WithRows(subset))
	if filled != 0 || slices.ContainsFunc(sources, func(c string) bool { return c != "relation" }) {
		t.Fatalf("a row-subset execution read %v and filled %d columns", sources, filled)
	}
	pin := s.pinExec(stmt, nil)
	head := stmt.entry.part.Load()
	for name, p := range map[string]*partition.Partitioning{"head": head, "restricted view": pin.view.Restrict(subset)} {
		if cells, filled := p.GroupColumn(0, 0); cells != nil || filled {
			t.Fatalf("the %s kept a column", name)
		}
	}
	if cells, filled := pin.view.GroupColumn(0, 0); cells == nil || !filled {
		t.Fatal("the pinned view kept no column")
	}
}

// TestGroupCellsDoNotOutliveTheirView is TestLayoutMemoDoesNotPinSnapshot
// for a view's group columns: once a mutation has replaced the pinned
// view, the old view and the columns its refines filled are garbage while
// the statement sits idle.
func TestGroupCellsDoNotOutliveTheirView(t *testing.T) {
	s, stmt, _ := cellsFixture(t, 20_000, WithTauTuples(2_000))
	if _, err := stmt.Execute(context.Background()); err != nil {
		t.Fatal(err)
	}
	view := s.d.cur.Load().views[stmt.entry.part.Load()]
	var kept []float64
	for gid := range view.Groups {
		if cells, filled := view.GroupColumn(gid, 0); !filled {
			kept = cells
			break
		}
	}
	if kept == nil {
		t.Fatal("the execution kept no group column")
	}
	collected := make(chan string, 2)
	runtime.SetFinalizer(view, func(*partition.Partitioning) { collected <- "view" })
	runtime.SetFinalizer(&kept[0], func(*float64) { collected <- "group column" })
	view, kept = nil, nil

	if _, err := s.UpdateRows([]int{0}, [][]relation.Value{{relation.F(2), relation.F(5), relation.I(3), relation.F(0)}}); err != nil {
		t.Fatal(err)
	}
	s.pinExec(stmt, nil)
	for got := 0; got < 2; {
		runtime.GC()
		select {
		case <-collected:
			got++
		case <-time.After(2 * time.Second):
			t.Fatalf("the superseded view or its columns are still reachable (%d of 2 finalizers ran)", got)
		}
	}
	runtime.KeepAlive(stmt)
}

// TestGroupCellsRaceInserts: one unfiltered statement executed many times
// at once on two workers, beside plain executions, shares its views'
// group columns while inserts move the version under it; under -race no
// execution reads a column another is still filling, and the statement
// then answers as a fresh one does.
func TestGroupCellsRaceInserts(t *testing.T) {
	s, stmt, rng := cellsFixture(t, 400, WithTauTuples(40), WithoutCache(), WithWorkers(2))
	stmts := make([]*Stmt, 8)
	for i := range stmts {
		stmts[i] = stmt
	}
	rows := make([][]relation.Value, 40)
	for i := range rows {
		rows[i] = cellsRow(rng)
	}
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for _, row := range rows {
			if _, _, err := s.InsertRows([][]relation.Value{row}); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < 20; i++ {
			if _, err := stmt.Execute(context.Background()); err != nil && !errors.Is(err, ErrInfeasible) {
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
	fresh, err := s.Prepare(cellsQuery)
	if err != nil {
		t.Fatal(err)
	}
	want, err := fresh.Execute(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	sameAnswer(t, "after the race", got, want)
}
