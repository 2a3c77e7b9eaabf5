package sketchrefine

import (
	"math"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/lp"
	"repro/internal/obs"
	"repro/internal/partition"
	"repro/internal/relation"
)

// TestRefineOrderMatchesMathRandShuffle: a seeded refinement order is the
// order Shuffle gives on a fresh math/rand generator of that seed, for
// every package size up to 64 groups — the first evaluation of a (seed,
// size) and the later ones, served from the memo, alike, with the seeds'
// evaluations racing on it — and seed 0 keeps the ascending order. A memo
// filled past its bound is emptied, not grown.
func TestRefineOrderMatchesMathRandShuffle(t *testing.T) {
	var wg sync.WaitGroup
	for _, seed := range []int64{1, 17, 99, 1, 17, 99} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for n := 0; n <= 64; n++ {
				st := &state{}
				for i := 0; i < n; i++ {
					st.reps = append(st.reps, rep{gid: 3*i + 1, mult: 1 + i%4})
				}
				want := make([]int, n)
				for i, r := range st.reps {
					want[i] = r.gid
				}
				ascending := slices.Clone(want)
				rand.New(rand.NewSource(seed)).Shuffle(n, func(i, j int) { want[i], want[j] = want[j], want[i] })
				for pass := 0; pass < 2; pass++ {
					ev := &evaluator{opt: Options{Seed: seed}}
					if got := ev.initialOrder(st); !slices.Equal(got, want) {
						t.Errorf("seed %d, %d groups, evaluation %d: order %v, math/rand shuffles to %v", seed, n, pass, got, want)
						return
					}
				}
				if got := (&evaluator{}).initialOrder(st); !slices.Equal(got, ascending) {
					t.Errorf("seed 0, %d groups: order %v, want ascending %v", n, got, ascending)
					return
				}
			}
		}()
	}
	wg.Wait()
	for seed := int64(1000); seed <= 1000+maxRefineOrders; seed++ {
		refineOrder(seed, 2)
	}
	refineOrders.Lock()
	kept := len(refineOrders.m)
	refineOrders.Unlock()
	if kept > maxRefineOrders {
		t.Fatalf("the memo holds %d orders, past its bound of %d", kept, maxRefineOrders)
	}
}

// coefKindSpecs are TestGroupColumnsStayReadOnly's two queries over snap:
// a window whose plain sketch is infeasible (so a hybrid sketch runs), and
// one with a coefficient of every kind.
func coefKindSpecs(snap *relation.Relation) (window, kinds *core.Spec) {
	window = cardSpec(snap, 3, 21.72)
	window.Constraints = append(window.Constraints,
		core.Constraint{Coef: core.AttrCoef{Attr: "a"}, Op: lp.GE, RHS: 21.68})
	a, b := core.AttrCoef{Attr: "a"}, core.AttrCoef{Attr: "b"}
	kinds = cardSpec(snap, 4, 30)
	kinds.Constraints = append(kinds.Constraints,
		core.Constraint{Coef: core.ShiftedAttrCoef{Attr: "b", Shift: -3}, Op: lp.GE, RHS: 0},
		core.Constraint{Coef: core.SumCoef{Parts: []core.Coef{a, core.ScaledCoef{W: 2, Inner: b}}}, Op: lp.LE, RHS: 70},
		core.Constraint{Coef: core.CondCoef{Pred: relation.NewCompare("b", relation.GT, relation.F(5)), Inner: core.UnitCoef{}}, Op: lp.GE, RHS: 1})
	kinds.Objective.Coef = core.SumCoef{Parts: []core.Coef{core.ScaledCoef{W: 0.5, Inner: a}, b}}
	return window, kinds
}

// sketchProblem builds the sketch query over gids the way an evaluation
// of spec over part does, after its prepare.
func sketchProblem(t *testing.T, spec *core.Spec, part *partition.Partitioning, gids func([]int) []int) (*evaluator, []int, *core.Spec, [][]float64) {
	t.Helper()
	ev := &evaluator{spec: spec, part: part, reps: part.Representatives()}
	if err := ev.prepare(nil); err != nil {
		t.Fatal(err)
	}
	over := gids(ev.gids)
	sketch, caps := ev.sketchColumns(over)
	prob, err := core.BuildILP(sketch, over, caps)
	if err != nil {
		t.Fatal(err)
	}
	return ev, over, sketch, append(prob.LP.A, prob.LP.C)
}

// TestSketchRowsAliasRepresentatives: a sketch over every group reads R̃'s
// own columns — its attribute rows share R̃'s backing arrays and its COUNT
// row the view's row of ones — and yet after sketches, refines and a
// hybrid sketch over every coefficient kind, every cell of R̃ is
// bit-identical to a copy taken before and the ones are still ones. A
// sketch over a strict subset of the groups (the hybrid sketch's kind, or
// a filter that empties a group) gathers its rows instead.
func TestSketchRowsAliasRepresentatives(t *testing.T) {
	small := genRel(60, 2)
	snap := small.Snapshot()
	view := buildPart(t, small, 12, 0).View(snap)
	reps := view.Representatives()
	a, b := reps.Schema().Lookup("a"), reps.Schema().Lookup("b")
	if a < 0 || b < 0 {
		t.Fatal("R̃ has no column a or b")
	}
	before := make([][]float64, reps.Schema().Len())
	for col := range before {
		before[col] = reps.Cells(col, reps.AllRows())
	}
	shares := func(row, cells []float64) bool { return len(row) > 0 && &row[0] == &cells[0] }

	all := func(gids []int) []int { return gids }
	ev, gids, sketch, rows := sketchProblem(t, cardSpec(snap, 3, 40), view, all)
	if len(gids) != reps.Len() || sketch.Cells == nil {
		t.Fatalf("a sketch over %d of %d groups reads no served cells", len(gids), reps.Len())
	}
	// cardSpec's rows: COUNT, SUM(a), then the objective SUM(b).
	if !shares(rows[0], view.RepresentativeOnes()) || !shares(rows[1], reps.FloatColumn(a)) || !shares(rows[2], reps.FloatColumn(b)) {
		t.Fatal("the sketch over every group copied R̃'s cells")
	}
	if !shares(rows[0], ev.repCells(-1)) {
		t.Fatal("a second read of the ones made another row")
	}

	window, kinds := coefKindSpecs(snap)
	for _, tc := range []struct {
		name   string
		spec   *core.Spec
		hybrid bool
	}{{"hybrid sketch", window, true}, {"every kind", kinds, false}} {
		refines, hybrids := refineCells(t, tc.spec, view)
		if (hybrids > 0) != tc.hybrid || len(refines) == 0 {
			t.Fatalf("%s: %d hybrid sketches, %d refines", tc.name, hybrids, len(refines))
		}
	}
	for col, want := range before {
		got := reps.Cells(col, reps.AllRows())
		if !slices.EqualFunc(got, want, func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) }) {
			t.Fatalf("R̃ column %d reads %v after the solves, %v before", col, got, want)
		}
	}
	for gid, one := range view.RepresentativeOnes() {
		if one != 1 {
			t.Fatalf("R̃'s row of ones reads %v at group %d", one, gid)
		}
	}

	_, _, sketch, rows = sketchProblem(t, cardSpec(snap, 3, 40), view, func(gids []int) []int { return gids[1:] })
	if sketch.Cells != nil || shares(rows[1], reps.FloatColumn(a)[1:]) || shares(rows[0], view.RepresentativeOnes()) {
		t.Fatal("a sketch over all groups but the first served R̃'s cells")
	}
	// A filter that leaves the first group no eligible row.
	filtered := cardSpec(snap, 3, 40)
	first := view.Groups[0].Rows
	filtered.Base = &relation.FuncPred{Desc: "not in the first group", Fn: func(*relation.Relation) func(int) bool {
		return func(row int) bool { return !slices.Contains(first, row) }
	}}
	_, gids, sketch, rows = sketchProblem(t, filtered, view, all)
	if len(gids) != reps.Len()-1 || sketch.Cells != nil || shares(rows[2], reps.FloatColumn(b)[1:]) {
		t.Fatalf("a sketch over %d of %d groups served R̃'s cells", len(gids), reps.Len())
	}
}

// TestUnfilteredPrepareReusesViewLayout: over a view, the first unfiltered
// prepare lays the member lists out and every later one — of any
// statement — reuses that layout, allocating nothing, and reports it on
// its span; a head keeps nothing and lays them out every time; and
// prepares racing on a fresh view all get the one layout (and the one row
// of ones for R̃).
func TestUnfilteredPrepareReusesViewLayout(t *testing.T) {
	rel, head := galaxyPart(t, 20_000)
	view := head.View(rel.Snapshot())
	spec := galaxySpec(view.Rel, false)
	reused := func(part *partition.Partitioning, spec *core.Spec) (*evaluator, bool) {
		sp := obs.NewSpan("prepare")
		ev := &evaluator{spec: spec, part: part}
		if err := ev.prepare(sp); err != nil {
			t.Fatal(err)
		}
		sp.Finish()
		return ev, sp.Node().Attrs["reused"].(bool)
	}
	first, firstReused := reused(view, spec)
	if firstReused {
		t.Fatal("the first prepare over a fresh view reported a reused layout")
	}
	other := galaxySpec(view.Rel, false)
	other.Constraints[0].RHS = 7
	second, secondReused := reused(view, other)
	if !secondReused || &second.eligible[0] != &first.eligible[0] || &second.gids[0] != &first.gids[0] {
		t.Fatal("a second statement over the view laid the member lists out again")
	}

	ev := &evaluator{spec: spec, part: view}
	if allocs := testing.AllocsPerRun(50, func() {
		ev.eligible, ev.gids = nil, nil
		if err := ev.prepare(nil); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Errorf("an unfiltered prepare over a view with its layout allocates %.0f objects", allocs)
	}
	if &ev.eligible[0] != &first.eligible[0] || !slices.Equal(ev.gids, first.gids) {
		t.Fatal("the reused layout is not the view's")
	}

	headFirst, r1 := reused(head, galaxySpec(rel, false))
	headSecond, r2 := reused(head, galaxySpec(rel, false))
	if r1 || r2 || &headFirst.eligible[0] == &headSecond.eligible[0] {
		t.Fatal("a head kept its member layout")
	}

	fresh := head.View(rel.Snapshot())
	const racers = 8
	layouts, ones := make([][][]int, racers), make([][]float64, racers)
	var wg sync.WaitGroup
	for i := range layouts {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ev := &evaluator{spec: galaxySpec(fresh.Rel, false), part: fresh}
			if err := ev.prepare(nil); err != nil {
				t.Error(err)
				return
			}
			layouts[i], ones[i] = ev.eligible, fresh.RepresentativeOnes()
		}()
	}
	wg.Wait()
	for i, l := range layouts {
		if &l[0] != &layouts[0][0] || &ones[i][0] != &ones[0][0] {
			t.Fatalf("racing prepare %d laid out a layout or a row of ones of its own", i)
		}
	}
}
