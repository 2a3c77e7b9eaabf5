package sketchrefine

import (
	"context"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/ilp"
	"repro/internal/lp"
	"repro/internal/obs"
	"repro/internal/partition"
	"repro/internal/relation"
	"repro/internal/reltest"
)

// TestDynamicPartitioningEndToEnd runs SketchRefine over partitionings
// bounded by the radius condition alone (τ = the whole relation), from a
// lax ω to a strict one — the partitionings Section 4.1's dynamic
// alternative would pick per query.
func TestDynamicPartitioningEndToEnd(t *testing.T) {
	rel := genRel(400, 31)
	spec := cardSpec(rel, 6, 40)
	for _, omega := range []float64{4, 2, 1} {
		part := buildPart(t, rel, rel.Len(), omega)
		pkg, _, err := EvaluateCtx(context.Background(), spec, part, Options{})
		if err != nil {
			t.Fatalf("ω=%g: %v", omega, err)
		}
		if ok, _ := pkg.IsFeasible(spec); !ok {
			t.Fatalf("ω=%g: infeasible package", omega)
		}
	}
}

// TestStatsAccumulation checks that evaluation statistics aggregate
// across sketch and refine subproblems.
func TestStatsAccumulation(t *testing.T) {
	rel := genRel(300, 32)
	part := buildPart(t, rel, 30, 0)
	spec := cardSpec(rel, 8, 50)
	_, stats, err := EvaluateCtx(context.Background(), spec, part, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Subproblems < 2 {
		t.Errorf("subproblems = %d, want sketch + at least one refine", stats.Subproblems)
	}
	if stats.Vars <= 0 || stats.Rows <= 0 {
		t.Errorf("largest subproblem not tracked: vars=%d rows=%d", stats.Vars, stats.Rows)
	}
	if stats.SolveTime <= 0 || stats.BuildTime < 0 {
		t.Errorf("times not tracked: solve=%v build=%v", stats.SolveTime, stats.BuildTime)
	}
	// The largest subproblem must be bounded by τ (refine) or the group
	// count (sketch).
	if stats.Vars > 30 && stats.Vars > part.NumGroups() {
		t.Errorf("subproblem with %d vars exceeds both τ=30 and m=%d", stats.Vars, part.NumGroups())
	}
}

// TestEvalStatsAdd covers the accumulator arithmetic directly.
func TestEvalStatsAdd(t *testing.T) {
	a := &core.EvalStats{Vars: 10, Rows: 3, SolverNodes: 5, LPIterations: 50, Subproblems: 1,
		BuildTime: time.Millisecond, SolveTime: 2 * time.Millisecond}
	b := &core.EvalStats{Vars: 7, Rows: 9, SolverNodes: 2, LPIterations: 10, Subproblems: 1,
		BuildTime: time.Millisecond, SolveTime: time.Millisecond}
	a.Add(b)
	if a.Vars != 10 { // max, not sum
		t.Errorf("Vars = %d, want 10", a.Vars)
	}
	if a.Rows != 9 {
		t.Errorf("Rows = %d, want 9", a.Rows)
	}
	if a.SolverNodes != 7 || a.LPIterations != 60 || a.Subproblems != 2 {
		t.Errorf("sums wrong: %+v", a)
	}
	if a.SolveTime != 3*time.Millisecond {
		t.Errorf("SolveTime = %v", a.SolveTime)
	}
	a.Add(nil) // must be a no-op
	if a.Subproblems != 2 {
		t.Error("Add(nil) changed stats")
	}
}

// TestBacktrackingExercised constructs a workload where the natural
// refinement order fails and backtracking must reorder groups: two
// clusters where greedy refinement of the "rich" cluster first exhausts
// the budget needed by a mandatory group.
func TestBacktrackingExercised(t *testing.T) {
	rel := relation.New("items", reltest.Schema(
		relation.Column{Name: "a", Type: relation.Float},
		relation.Column{Name: "b", Type: relation.Float},
	))
	// Group-like clusters: low-a cluster and high-a cluster.
	for i := 0; i < 12; i++ {
		reltest.Append(rel, relation.F(1+0.01*float64(i)), relation.F(10))
	}
	for i := 0; i < 12; i++ {
		reltest.Append(rel, relation.F(9+0.01*float64(i)), relation.F(11))
	}
	part := buildPart(t, rel, 12, 0)
	// Budget forces a mix: 4 tuples, SUM(a) in [20, 22] — two from each
	// cluster (1+1+9+9=20). Greedy maximization of b pulls from the
	// high-b cluster first.
	spec := &core.Spec{
		Rel:    rel,
		Repeat: 0,
		Constraints: []core.Constraint{
			{Coef: core.UnitCoef{}, Op: lp.EQ, RHS: 4},
			{Coef: core.AttrCoef{Attr: "a"}, Op: lp.GE, RHS: 20},
			{Coef: core.AttrCoef{Attr: "a"}, Op: lp.LE, RHS: 22},
		},
		Objective: &core.Objective{Maximize: true, Coef: core.AttrCoef{Attr: "b"}},
	}
	pkg, _, err := EvaluateCtx(context.Background(), spec, part, Options{})
	if err != nil {
		t.Fatalf("backtracking scenario failed: %v", err)
	}
	if ok, _ := pkg.IsFeasible(spec); !ok {
		t.Fatal("package infeasible")
	}
}

// TestSketchCapsRespectRepeat verifies the Section 4.2.1 count caps:
// with REPEAT K, a representative may appear up to |Gⱼ|·(K+1) times and
// the final package respects per-tuple multiplicities.
func TestSketchCapsRespectRepeat(t *testing.T) {
	rel := genRel(60, 33)
	part := buildPart(t, rel, 6, 0)
	for _, repeat := range []int{0, 1, 3} {
		spec := cardSpec(rel, 10, 70)
		spec.Repeat = repeat
		pkg, _, err := EvaluateCtx(context.Background(), spec, part, Options{})
		if err != nil {
			t.Fatalf("repeat %d: %v", repeat, err)
		}
		for k := range pkg.Rows {
			if pkg.Mult[k] > repeat+1 {
				t.Errorf("repeat %d: multiplicity %d", repeat, pkg.Mult[k])
			}
		}
	}
}

// TestSolverBudgetPropagates: a pathologically small per-subproblem node
// budget must still yield a feasible package (AcceptIncumbent) or a
// clean infeasibility report — never a wrong package.
func TestSolverBudgetPropagates(t *testing.T) {
	rel := genRel(300, 34)
	part := buildPart(t, rel, 40, 0)
	spec := cardSpec(rel, 8, 50)
	pkg, _, err := EvaluateCtx(context.Background(), spec, part, Options{
		Solver: ilp.Options{MaxNodes: 2},
	})
	if err != nil {
		return // acceptable: budget too small to finish
	}
	ok, err := pkg.IsFeasible(spec)
	if err != nil || !ok {
		t.Fatal("budget-limited evaluation returned an infeasible package")
	}
}

// TestTraceSubproblemIDs: in a traced evaluation every ILP solve has its
// own "ilp" span numbered in evaluation order — 0..k-1 for the k
// subproblems the stats report — and the incumbents a solve streams
// carry its span's number. The second case also pins that a hybrid
// sketch's solve is visible in the trace.
func TestTraceSubproblemIDs(t *testing.T) {
	rel := genRel(300, 32)
	// A SUM(a) window too narrow for any combination of centroids: the
	// plain sketch is infeasible and the hybrid sketch tries group after
	// group until one admits original tuples that hit the window.
	small := genRel(60, 2)
	window := cardSpec(small, 3, 21.72)
	window.Constraints = append(window.Constraints,
		core.Constraint{Coef: core.AttrCoef{Attr: "a"}, Op: lp.GE, RHS: 21.68})
	for _, tc := range []struct {
		name   string
		spec   *core.Spec
		part   *partition.Partitioning
		hybrid bool // the plain sketch is infeasible
	}{
		{name: "sketch+refines", spec: cardSpec(rel, 8, 50), part: buildPart(t, rel, 30, 0)},
		{name: "hybrid sketch", spec: window, part: buildPart(t, small, 12, 0), hybrid: true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			root := obs.NewSpan("solve")
			streamed := map[int]bool{}
			_, stats, err := EvaluateCtx(obs.ContextWith(context.Background(), root), tc.spec, tc.part, Options{
				OnIncumbent: func(inc core.Incumbent) { streamed[inc.Subproblem] = true },
			})
			if err != nil {
				t.Fatal(err)
			}
			root.Finish()

			var ids []int64
			hybrids := 0
			var walk func(n *obs.Node)
			walk = func(n *obs.Node) {
				switch n.Name {
				case "ilp":
					id, ok := n.Attrs["subproblem"].(int64)
					if !ok {
						t.Fatalf("ilp span without a subproblem attr: %v", n.Attrs)
					}
					ids = append(ids, id)
					for _, a := range []string{"retired", "rounds", "working_set", "root_rounds", "root_columns"} {
						if _, ok := n.Attrs[a]; !ok {
							t.Errorf("ilp span without a %s attr: %v", a, n.Attrs)
						}
					}
				case "hybrid_sketch":
					hybrids++
					if len(n.Children) != 1 || n.Children[0].Name != "ilp" {
						t.Fatalf("hybrid_sketch span hides its solve: children %v", n.Children)
					}
					if _, ok := n.Children[0].Attrs["nodes"]; !ok {
						t.Errorf("hybrid_sketch's ilp span carries no nodes attr: %v", n.Children[0].Attrs)
					}
				}
				for _, c := range n.Children {
					walk(c)
				}
			}
			walk(root.Node())

			if len(ids) != stats.Subproblems || len(ids) < 2 {
				t.Fatalf("%d ilp spans for %d subproblems", len(ids), stats.Subproblems)
			}
			for i, id := range ids {
				if id != int64(i) {
					t.Fatalf("ilp spans numbered %v, want 0..%d in evaluation order", ids, len(ids)-1)
				}
			}
			if len(streamed) == 0 {
				t.Fatal("no incumbents streamed")
			}
			for sub := range streamed {
				if sub < 0 || sub >= len(ids) {
					t.Errorf("incumbent tagged subproblem %d, but the ilp spans are 0..%d", sub, len(ids)-1)
				}
			}
			if tc.hybrid != (hybrids > 0) {
				t.Errorf("%d hybrid_sketch spans, hybrid expected: %v", hybrids, tc.hybrid)
			}
		})
	}
}
