package ilp_test

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/core"
	"repro/internal/ilp"
	"repro/internal/lp"
	"repro/internal/translate"
	"repro/internal/workload"
)

// galaxyProblems builds the DIRECT ILP of each of the seven Galaxy
// templates over an n-row table.
func galaxyProblems(tb testing.TB, n int) (names []string, probs []*ilp.Problem) {
	tb.Helper()
	rel := workload.Galaxy(n, 1)
	queries, err := workload.GalaxyQueries(rel)
	if err != nil {
		tb.Fatal(err)
	}
	for _, q := range queries {
		spec, err := translate.Compile(q.PaQL, rel)
		if err != nil {
			tb.Fatalf("%s: %v", q.Name, err)
		}
		prob, err := core.BuildILP(spec, spec.BaseRows(), nil)
		if err != nil {
			tb.Fatalf("%s: %v", q.Name, err)
		}
		names = append(names, q.Name)
		probs = append(probs, prob)
	}
	return names, probs
}

// refineShape is a SketchRefine refine query over one group: template
// tmpl's DIRECT ILP over an n-row Galaxy table — the group — with every
// right-hand side moved by rest tuples at the table's mean, the rest of
// the package held outside the group. Q3 and Q6 refine groups of
// paqbench's sketchrefine workload have this shape, and find their first
// incumbent late.
type refineShape struct {
	name    string
	n, tmpl int
	seed    int64
	rest    int
	// The search without the restricted core: its node count, and the
	// objective's bits, which the core may not move.
	parentNodes int
	parentObj   uint64
}

var refineShapes = []refineShape{
	// COUNT 6 over 9 000 columns; the first incumbent came at node 74 of 123.
	{name: "Q3-shaped", n: 9000, tmpl: 2, seed: 8, rest: 6, parentNodes: 123, parentObj: 0x40634578d4fdf3b6},
	// COUNT 1 with two windows over 3 000 columns; first incumbent at 51 of 76.
	{name: "Q6-shaped", n: 3000, tmpl: 5, seed: 2, rest: 8, parentNodes: 76, parentObj: 0x4033b78d4fdf3b64},
}

func (s refineShape) problem(tb testing.TB) *ilp.Problem {
	tb.Helper()
	rel := workload.Galaxy(s.n, s.seed)
	queries, err := workload.GalaxyQueries(rel)
	if err != nil {
		tb.Fatal(err)
	}
	spec, err := translate.Compile(queries[s.tmpl].PaQL, rel)
	if err != nil {
		tb.Fatal(err)
	}
	p, err := core.BuildILP(spec, spec.BaseRows(), nil)
	if err != nil {
		tb.Fatal(err)
	}
	for i, row := range p.LP.A {
		sum := 0.0
		for _, a := range row {
			sum += a
		}
		p.LP.B[i] -= float64(s.rest) * sum / float64(s.n)
	}
	return p
}

// TestCoreIncumbentOnRefineShapes: on the refine shapes, where the tree
// alone finds its first incumbent late, the restricted core supplies one
// before the 17th node, and the answer is the one the search found
// without it.
func TestCoreIncumbentOnRefineShapes(t *testing.T) {
	for _, s := range refineShapes {
		first := -1
		opt := ilp.Options{MaxNodes: 50000, Gap: 1e-4, OnIncumbent: func(_ []float64, _ float64, nodes int) {
			if first < 0 {
				first = nodes
			}
		}}
		res, err := ilp.SolveCtx(context.Background(), s.problem(t), opt)
		if err != nil {
			t.Fatalf("%s: %v", s.name, err)
		}
		t.Logf("%s: %v, %d nodes (%d in the core), %d LP iterations; without the core %d nodes",
			s.name, res.Status, res.Nodes, res.CoreNodes, res.LPIterations, s.parentNodes)
		if res.Status != ilp.Optimal || math.Float64bits(res.Objective) != s.parentObj {
			t.Errorf("%s: %v objective %v (%#x), want optimal %v", s.name, res.Status, res.Objective,
				math.Float64bits(res.Objective), math.Float64frombits(s.parentObj))
		}
		// The callback counts the core's nodes; the main tree had explored
		// the rest.
		if !res.CoreIncumbent || first-res.CoreNodes > 17 {
			t.Errorf("%s: core incumbent %v, first incumbent after %d main-tree nodes; want the core's by node 17",
				s.name, res.CoreIncumbent, first-res.CoreNodes)
		}
	}
}

// TestInfeasibleCoreLeavesTheBudget: a restricted core with no integral
// point, and no quick proof of that, costs the search a bounded detour
// and not its node budget. Twenty gadgets a + b ≤ 1.5 (a worth 100, b
// worth 1) each leave b at ½ in the LP, and so does y under 2y + s ≥ 1,
// 2y ≤ 1: an integral point needs s = 1, which costs 1. Two hundred and
// thirty free variables worth 0 rank ahead of s, so the core leaves it
// out, and with no incumbent to prune by its tree would enumerate the
// gadgets' 2²⁰ combinations. The search plunges through all twenty
// gadgets before y gives it s, so the core runs first; after it gives up,
// the tree finishes well within the budget.
func TestInfeasibleCoreLeavesTheBudget(t *testing.T) {
	const gadgets, free = 20, 230
	n := 2*gadgets + 2 + free
	y, s := 2*gadgets, 2*gadgets+1
	p := &ilp.Problem{LP: lp.Problem{Maximize: true, C: make([]float64, n), Hi: make([]float64, n)}}
	row := func(op lp.ConstraintOp, b float64, coef map[int]float64) {
		a := make([]float64, n)
		for j, v := range coef {
			a[j] = v
		}
		p.LP.A, p.LP.Op, p.LP.B = append(p.LP.A, a), append(p.LP.Op, op), append(p.LP.B, b)
	}
	for g := 0; g < gadgets; g++ {
		p.LP.C[2*g], p.LP.C[2*g+1] = 100, 1
		row(lp.LE, 1.5, map[int]float64{2 * g: 1, 2*g + 1: 1})
	}
	p.LP.C[s] = -1
	row(lp.GE, 1, map[int]float64{y: 2, s: 1})
	row(lp.LE, 1, map[int]float64{y: 2})
	all := map[int]float64{}
	for j := 2*gadgets + 2; j < n; j++ {
		all[j] = 1
	}
	row(lp.LE, free, all)
	for j := range p.LP.Hi {
		p.LP.Hi[j] = 1
	}
	res, err := ilp.SolveCtx(context.Background(), p, ilp.Options{MaxNodes: 1000})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("%v, %d nodes (%d in the core), objective %v", res.Status, res.Nodes, res.CoreNodes, res.Objective)
	if res.CoreNodes == 0 || res.CoreIncumbent {
		t.Errorf("core ran %d nodes, incumbent %v; want a core run without one", res.CoreNodes, res.CoreIncumbent)
	}
	if want := 100.0*gadgets - 1; res.Status != ilp.Optimal || res.Objective != want {
		t.Errorf("%v objective %v, want optimal %v", res.Status, res.Objective, want)
	}
}

// knapsack builds a multi-row knapsack with near-substitutable items —
// capacity rows that bind and a COUNT(*) = n/5 row — over variables in
// [0, hi].
func knapsack(n, rows int, hi float64, seed int64) *ilp.Problem {
	rng := rand.New(rand.NewSource(seed))
	p := &ilp.Problem{LP: lp.Problem{Maximize: true, C: make([]float64, n), Hi: make([]float64, n)}}
	count := make([]float64, n)
	for j := 0; j < n; j++ {
		p.LP.C[j] = 1 + rng.Float64()*9
		p.LP.Hi[j] = hi
		count[j] = 1
	}
	for i := 0; i < rows; i++ {
		w := make([]float64, n)
		for j := range w {
			w[j] = 1 + rng.Float64()*9
		}
		p.LP.A = append(p.LP.A, w)
		p.LP.Op = append(p.LP.Op, lp.LE)
		p.LP.B = append(p.LP.B, float64(n)*0.7+0.3)
	}
	p.LP.A = append(p.LP.A, count)
	p.LP.Op = append(p.LP.Op, lp.EQ)
	p.LP.B = append(p.LP.B, float64(n/5))
	return p
}

// TestTreeIndependentOfPivotPath: the search tree is a function of the
// problem, not of the LP kernel. Branch and bound driven by the dense
// oracle, cold at every node, and by the warm workspace walk the same
// tree — the same node count, the same answer, and node by node the same
// LP objective — although the two kernels share no pivot order. It is the
// lowest-index tie rule of mostFractional that makes this hold: under a
// COUNT(*) = k row the two fractional basics are exactly equally
// fractional, and floating-point noise used to pick between them.
func TestTreeIndependentOfPivotPath(t *testing.T) {
	names, probs := galaxyProblems(t, 3000)
	names = append(names, "knapsack-40", "knapsack-2x120", "knapsack-repeat-3")
	probs = append(probs, ilp.AllocProblem(), knapsack(120, 2, 1, 5), knapsack(60, 1, 3, 9))
	opt := ilp.Options{MaxNodes: 50000, Gap: 1e-4}
	ctx := context.Background()
	branched := 0
	for i, p := range probs {
		warm, warmObjs, err := ilp.SolveRecording(ctx, p, opt)
		if err != nil {
			t.Fatalf("%s: warm: %v", names[i], err)
		}
		cold, coldObjs, err := ilp.SolveOverOracle(ctx, p, opt)
		if err != nil {
			t.Fatalf("%s: oracle: %v", names[i], err)
		}
		t.Logf("%s: %v, %d nodes, %d warm + %d cold solves, %d LP iterations (oracle-driven: %d)",
			names[i], warm.Status, warm.Nodes, warm.WarmSolves, warm.ColdSolves, warm.LPIterations, cold.LPIterations)
		branched += warm.Nodes
		if warm.Status != cold.Status || warm.Nodes != cold.Nodes || warm.Incumbents != cold.Incumbents {
			t.Errorf("%s: warm %v/%d nodes/%d incumbents, oracle-driven %v/%d/%d",
				names[i], warm.Status, warm.Nodes, warm.Incumbents, cold.Status, cold.Nodes, cold.Incumbents)
			continue
		}
		for j := range warm.X {
			if warm.X[j] != cold.X[j] {
				t.Errorf("%s: x[%d] = %g, oracle-driven %g", names[i], j, warm.X[j], cold.X[j])
				break
			}
		}
		if len(warmObjs) != len(coldObjs) {
			t.Errorf("%s: %d nodes solved to optimality, oracle-driven %d", names[i], len(warmObjs), len(coldObjs))
			continue
		}
		for k := range warmObjs {
			if d := math.Abs(warmObjs[k] - coldObjs[k]); d > 1e-9*math.Max(1, math.Abs(coldObjs[k])) {
				t.Errorf("%s: node %d: LP objective %.14g, oracle %.14g", names[i], k, warmObjs[k], coldObjs[k])
				break
			}
		}
		if roots := 1 + min(warm.CoreNodes, 1); warm.ColdSolves != roots {
			t.Errorf("%s: %d cold solves, want the roots only (%d)", names[i], warm.ColdSolves, roots)
		}
	}
	if branched < 1000 {
		t.Errorf("only %d nodes in all: the fixtures no longer exercise the tree", branched)
	}
}

// TestRetiredColumnsKeepTheTree: the columns reduced-cost fixing retires
// leave the LP kernel's loops and nothing else. A search whose kernel
// ignores Retire — and so prices every column to the end — walks the same
// tree bit for bit: status, node and iteration counts, incumbents, the
// answer and every node's LP objective.
func TestRetiredColumnsKeepTheTree(t *testing.T) {
	names, probs := galaxyProblems(t, 3000)
	names = append(names, "knapsack-40", "knapsack-2x120", "knapsack-repeat-3")
	probs = append(probs, ilp.AllocProblem(), knapsack(120, 2, 1, 5), knapsack(60, 1, 3, 9))
	opt := ilp.Options{MaxNodes: 50000, Gap: 1e-4}
	ctx := context.Background()
	retired := 0
	for i, p := range probs {
		got, gotObjs, err := ilp.SolveRecording(ctx, p, opt)
		if err != nil {
			t.Fatalf("%s: %v", names[i], err)
		}
		want, wantObjs, err := ilp.SolveRecordingUnretired(ctx, p, opt)
		if err != nil {
			t.Fatalf("%s: unretired: %v", names[i], err)
		}
		retired += got.Retired
		if got.Status != want.Status || got.Nodes != want.Nodes || got.LPIterations != want.LPIterations || got.Incumbents != want.Incumbents {
			t.Errorf("%s: %v/%d nodes/%d iterations/%d incumbents, unretired %v/%d/%d/%d", names[i],
				got.Status, got.Nodes, got.LPIterations, got.Incumbents, want.Status, want.Nodes, want.LPIterations, want.Incumbents)
			continue
		}
		for j := range want.X {
			if math.Float64bits(got.X[j]) != math.Float64bits(want.X[j]) {
				t.Errorf("%s: x[%d] = %v, unretired %v", names[i], j, got.X[j], want.X[j])
				break
			}
		}
		if len(gotObjs) != len(wantObjs) {
			t.Errorf("%s: %d node objectives, unretired %d", names[i], len(gotObjs), len(wantObjs))
			continue
		}
		for k := range wantObjs {
			if math.Float64bits(gotObjs[k]) != math.Float64bits(wantObjs[k]) {
				t.Errorf("%s: node %d: LP objective %v, unretired %v", names[i], k, gotObjs[k], wantObjs[k])
				break
			}
		}
	}
	if retired == 0 {
		t.Error("no column was retired: the fixtures no longer exercise the kernel's active list")
	}
}

// BenchmarkNodeThroughput is the branch-and-bound rung of the ladder:
// the seven Galaxy templates over 3000 rows, solved to the benchmark's
// gap, reported per node (root included).
func BenchmarkNodeThroughput(b *testing.B) {
	_, probs := galaxyProblems(b, 3000)
	opt := ilp.Options{MaxNodes: 50000, Gap: 1e-4}
	ctx := context.Background()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	b.ResetTimer()
	nodes := 0
	for i := 0; i < b.N; i++ {
		for _, p := range probs {
			res, err := ilp.SolveCtx(ctx, p, opt)
			if err != nil {
				b.Fatal(err)
			}
			nodes += res.Nodes + 1
		}
	}
	b.StopTimer()
	runtime.ReadMemStats(&after)
	b.ReportMetric(float64(nodes)/b.Elapsed().Seconds(), "nodes/s")
	b.ReportMetric(float64(after.TotalAlloc-before.TotalAlloc)/float64(nodes), "B/node")
}

// BenchmarkRefineGroup is the refine ILP's rung: the Q3- and Q6-shaped
// groups above, solved to the benchmark's gap.
func BenchmarkRefineGroup(b *testing.B) {
	for _, s := range refineShapes {
		b.Run(fmt.Sprintf("%s/n=%d", s.name, s.n), func(b *testing.B) {
			p := s.problem(b)
			opt := ilp.Options{MaxNodes: 50000, Gap: 1e-4}
			nodes, iters := 0, 0
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := ilp.SolveCtx(context.Background(), p, opt)
				if err != nil {
					b.Fatal(err)
				}
				nodes, iters = nodes+res.Nodes, iters+res.LPIterations
			}
			b.ReportMetric(b.Elapsed().Seconds()*1e3/float64(b.N), "ms/op")
			b.ReportMetric(float64(nodes)/float64(b.N), "nodes/op")
			b.ReportMetric(float64(iters)/float64(b.N), "lp_iterations/op")
		})
	}
}
