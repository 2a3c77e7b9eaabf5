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
// paqbench's sketchrefine workload have this shape, and a search over
// every variable finds their first incumbent late.
type refineShape struct {
	name    string
	n, tmpl int
	seed    int64
	rest    int
	// The optimum's bits, which the search over every variable finds too.
	obj uint64
}

var refineShapes = []refineShape{
	// COUNT 6 over 9 000 columns; over every variable the first incumbent
	// comes at node 74 of 123.
	{name: "Q3-shaped", n: 9000, tmpl: 2, seed: 8, rest: 6, obj: 0x40634578d4fdf3b6},
	// COUNT 1 with two windows over 3 000 columns; first incumbent at 51 of 76.
	{name: "Q6-shaped", n: 3000, tmpl: 5, seed: 2, rest: 8, obj: 0x4033b78d4fdf3b64},
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

// TestCoreIncumbentOnRefineShapes: on the refine shapes the working-set
// search proves the optimum the search over every variable found, bit for
// bit, and finds its first incumbent in its first round.
func TestCoreIncumbentOnRefineShapes(t *testing.T) {
	for _, s := range refineShapes {
		first := -1
		opt := ilp.Options{MaxNodes: 50000, Gap: 1e-4, OnIncumbent: func(_ []ilp.Entry, _ float64, nodes int) {
			if first < 0 {
				first = nodes
			}
		}}
		res, err := ilp.SolveCtx(context.Background(), s.problem(t), opt)
		if err != nil {
			t.Fatalf("%s: %v", s.name, err)
		}
		t.Logf("%s: %v, %d nodes in %d rounds over %d variables, first incumbent at node %d, %d LP iterations",
			s.name, res.Status, res.Nodes, res.Rounds, res.WorkingSet, first, res.LPIterations)
		if res.Status != ilp.Optimal || math.Float64bits(res.Objective) != s.obj {
			t.Errorf("%s: %v objective %v (%#x), want optimal %v", s.name, res.Status, res.Objective,
				math.Float64bits(res.Objective), math.Float64frombits(s.obj))
		}
		if res.Rounds == 0 || first < 0 || first > 64 {
			t.Errorf("%s: %d rounds, first incumbent at node %d; want one within the first round's 64 nodes", s.name, res.Rounds, first)
		}
	}
}

// TestInfeasibleCoreLeavesTheBudget: a working set with no integral
// point, and no quick proof of that, costs the search a bounded detour
// and not its node budget. Twenty gadgets a + b ≤ 1.5 (a worth 100, b
// worth 1) each leave b at ½ in the LP, and so does y under 2y + s ≥ 1,
// 2y ≤ 1: an integral point needs s = 1, which costs 1. Two hundred and
// thirty free variables worth 0 rank ahead of s, so the first working set
// leaves it out, and with no incumbent to prune by a round would
// enumerate the gadgets' 2²⁰ combinations. Each round gives up after as
// many nodes as it has variables, and the set doubles until s is in it.
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
	t.Logf("%v, %d nodes in %d rounds over %d variables, objective %v", res.Status, res.Nodes, res.Rounds, res.WorkingSet, res.Objective)
	if res.Rounds < 2 {
		t.Errorf("%d rounds; want the first working set to give up", res.Rounds)
	}
	if want := 100.0*gadgets - 1; res.Status != ilp.Optimal || res.Objective != want {
		t.Errorf("%v objective %v, want optimal %v", res.Status, res.Objective, want)
	}
}

// galaxyTrees pins the working-set search on the seven Galaxy templates
// at 3 000 rows: nodes, rounds and the last round's |W|. Q5 and Q7 are
// integral at the root.
var galaxyTrees = map[string][3]int{
	"Q1": {70, 1, 64}, "Q2": {93, 1, 64}, "Q3": {27, 1, 64}, "Q4": {88, 1, 64},
	"Q5": {0, 0, 0}, "Q6": {1127, 1, 64}, "Q7": {0, 0, 0},
}

// wideTrees pins the search on the seven Galaxy templates at 20 000
// rows, where the passes over every variable cost more than the LP: the
// status, nodes, rounds, the last round's |W|, the root's sifting rounds
// and final width, and the objective's bits.
var wideTrees = map[string]struct {
	status                                             ilp.Status
	nodes, rounds, workingSet, rootRounds, rootColumns int
	obj                                                uint64
}{
	"Q1": {ilp.Optimal, 7, 1, 64, 1, 64, 0x4010a6e978d4fdf4},
	"Q2": {ilp.Optimal, 0, 0, 0, 1, 64, 0x4042451eb851eb85},
	"Q3": {ilp.Optimal, 5, 1, 64, 1, 64, 0x407393b22d0e5604},
	"Q4": {ilp.Optimal, 18, 1, 64, 1, 64, 0x40519ab020c49ba6},
	"Q5": {ilp.Optimal, 0, 0, 0, 1, 64, 0x405f6189374bc6a9},
	"Q6": {ilp.Optimal, 1389, 2, 128, 3, 192, 0x4066329fbe76c8b4},
	"Q7": {ilp.Optimal, 0, 0, 0, 1, 64, 0x404640e560418936},
}

// TestWideTreesPinned: at 20 000 rows the search walks the pinned trees.
func TestWideTreesPinned(t *testing.T) {
	names, probs := galaxyProblems(t, 20000)
	for i, p := range probs {
		res, err := ilp.SolveCtx(context.Background(), p, ilp.Options{MaxNodes: 50000, Gap: 1e-4})
		if err != nil {
			t.Fatalf("%s: %v", names[i], err)
		}
		want := wideTrees[names[i]]
		got := want
		got.status, got.nodes, got.rounds, got.workingSet = res.Status, res.Nodes, res.Rounds, res.WorkingSet
		got.rootRounds, got.rootColumns, got.obj = res.RootRounds, res.RootColumns, math.Float64bits(res.Objective)
		t.Logf("%s: %+v", names[i], got)
		if got != want {
			t.Errorf("%s: %+v, want %+v", names[i], got, want)
		}
	}
}

// TestWorkingSetMatchesFullWidth: the working-set search and the search
// over every variable, through the same seam, agree on the status and on
// the objective's bits for every fixture. Where their packages differ
// they must tie: both satisfy every row and sum to the same objective,
// and the test shows where they differ. On the Galaxy templates the tree
// is pinned too (galaxyTrees): sifting the root must not move it.
func TestWorkingSetMatchesFullWidth(t *testing.T) {
	names, probs := galaxyProblems(t, 3000)
	for _, s := range refineShapes {
		names, probs = append(names, s.name), append(probs, s.problem(t))
	}
	names = append(names, "knapsack-40", "knapsack-2x120", "knapsack-repeat-3")
	probs = append(probs, ilp.AllocProblem(), knapsack(120, 2, 1, 5), knapsack(60, 1, 3, 9))
	opt := ilp.Options{MaxNodes: 50000, Gap: 1e-4}
	ctx := context.Background()
	for i, p := range probs {
		got, _, err := ilp.SolveRecording(ctx, p, opt)
		if err != nil {
			t.Fatalf("%s: %v", names[i], err)
		}
		want, _, err := ilp.SolveFullWidth(ctx, p, opt)
		if err != nil {
			t.Fatalf("%s: full width: %v", names[i], err)
		}
		t.Logf("%s: %v, root in %d rounds over %d, %d nodes in %d rounds over %d of %d variables; full width %d nodes",
			names[i], got.Status, got.RootRounds, got.RootColumns, got.Nodes, got.Rounds, got.WorkingSet, p.LP.NumVars(), want.Nodes)
		if tree, ok := galaxyTrees[names[i]]; ok && tree != [3]int{got.Nodes, got.Rounds, got.WorkingSet} {
			t.Errorf("%s: %d nodes in %d rounds over %d, want %d in %d over %d", names[i], got.Nodes, got.Rounds, got.WorkingSet, tree[0], tree[1], tree[2])
		}
		if got.Status != want.Status || math.Float64bits(got.Objective) != math.Float64bits(want.Objective) {
			t.Errorf("%s: %v objective %v, full width %v %v", names[i], got.Status, got.Objective, want.Status, want.Objective)
			continue
		}
		var differ []int
		gx, wx := got.Dense(p.LP.NumVars()), want.Dense(p.LP.NumVars())
		for j := range wx {
			if gx[j] != wx[j] {
				differ = append(differ, j)
			}
		}
		if len(differ) == 0 {
			continue
		}
		for _, x := range [][]float64{gx, wx} {
			if !rowsHold(p, x) {
				t.Errorf("%s: package %v breaks a row", names[i], x)
			}
		}
		t.Logf("%s: a tie at objective %v: the packages differ at variables %v", names[i], got.Objective, differ)
	}
}

// rowsHold reports whether x satisfies every row of p within the LP
// kernel's feasibility tolerance.
func rowsHold(p *ilp.Problem, x []float64) bool {
	for i, row := range p.LP.A {
		lhs := 0.0
		for j, a := range row {
			lhs += a * x[j]
		}
		if p.LP.Op[i] != lp.GE && lhs > p.LP.B[i]+1e-6 || p.LP.Op[i] != lp.LE && lhs < p.LP.B[i]-1e-6 {
			return false
		}
	}
	return true
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
		t.Logf("%s: %v, root in %d rounds over %d variables, %d nodes in %d rounds over %d, %d warm + %d cold solves, %d LP iterations (oracle-driven: %d)",
			names[i], warm.Status, warm.RootRounds, warm.RootColumns, warm.Nodes, warm.Rounds, warm.WorkingSet, warm.WarmSolves, warm.ColdSolves, warm.LPIterations, cold.LPIterations)
		branched += warm.Nodes
		if warm.Status != cold.Status || warm.Nodes != cold.Nodes || warm.Incumbents != cold.Incumbents {
			t.Errorf("%s: warm %v/%d nodes/%d incumbents, oracle-driven %v/%d/%d",
				names[i], warm.Status, warm.Nodes, warm.Incumbents, cold.Status, cold.Nodes, cold.Incumbents)
			continue
		}
		wx, cx := warm.Dense(p.LP.NumVars()), cold.Dense(p.LP.NumVars())
		for j := range wx {
			if wx[j] != cx[j] {
				t.Errorf("%s: x[%d] = %g, oracle-driven %g", names[i], j, wx[j], cx[j])
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
		if roots := warm.RootRounds + warm.Rounds; warm.ColdSolves != roots {
			t.Errorf("%s: %d cold solves, want the roots only (%d root rounds + %d rounds)", names[i], warm.ColdSolves, warm.RootRounds, warm.Rounds)
		}
		if warm.RootRounds != cold.RootRounds || warm.RootColumns != cold.RootColumns || warm.Rounds != cold.Rounds || warm.WorkingSet != cold.WorkingSet {
			t.Errorf("%s: root in %d rounds over %d, tree in %d over %d; oracle-driven %d over %d, %d over %d", names[i],
				warm.RootRounds, warm.RootColumns, warm.Rounds, warm.WorkingSet, cold.RootRounds, cold.RootColumns, cold.Rounds, cold.WorkingSet)
		}
	}
	if branched < 1000 {
		t.Errorf("only %d nodes in all: the fixtures no longer exercise the tree", branched)
	}
}

// BenchmarkNodeThroughput is the branch-and-bound rung of the ladder:
// the seven Galaxy templates over 3000 rows, solved to the benchmark's
// gap, reported per node (root included), with the sifted root's rounds
// and final width per solve.
func BenchmarkNodeThroughput(b *testing.B) {
	_, probs := galaxyProblems(b, 3000)
	opt := ilp.Options{MaxNodes: 50000, Gap: 1e-4}
	ctx := context.Background()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	b.ResetTimer()
	nodes, rootRounds, rootColumns := 0, 0, 0
	for i := 0; i < b.N; i++ {
		for _, p := range probs {
			res, err := ilp.SolveCtx(ctx, p, opt)
			if err != nil {
				b.Fatal(err)
			}
			nodes += res.Nodes + 1
			rootRounds, rootColumns = rootRounds+res.RootRounds, rootColumns+res.RootColumns
		}
	}
	b.StopTimer()
	runtime.ReadMemStats(&after)
	solves := float64(b.N * len(probs))
	b.ReportMetric(float64(nodes)/b.Elapsed().Seconds(), "nodes/s")
	b.ReportMetric(float64(after.TotalAlloc-before.TotalAlloc)/float64(nodes), "B/node")
	b.ReportMetric(float64(rootRounds)/solves, "root_rounds/solve")
	b.ReportMetric(float64(rootColumns)/solves, "root_columns/solve")
}

// BenchmarkRefineGroup is the refine ILP's rung: the Q3- and Q6-shaped
// groups above, solved to the benchmark's gap, with the sifted root's
// rounds and final width.
func BenchmarkRefineGroup(b *testing.B) {
	for _, s := range refineShapes {
		b.Run(fmt.Sprintf("%s/n=%d", s.name, s.n), func(b *testing.B) {
			p := s.problem(b)
			opt := ilp.Options{MaxNodes: 50000, Gap: 1e-4}
			nodes, iters, rootRounds, rootColumns := 0, 0, 0, 0
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := ilp.SolveCtx(context.Background(), p, opt)
				if err != nil {
					b.Fatal(err)
				}
				nodes, iters = nodes+res.Nodes, iters+res.LPIterations
				rootRounds, rootColumns = rootRounds+res.RootRounds, rootColumns+res.RootColumns
			}
			b.ReportMetric(b.Elapsed().Seconds()*1e3/float64(b.N), "ms/op")
			b.ReportMetric(float64(nodes)/float64(b.N), "nodes/op")
			b.ReportMetric(float64(iters)/float64(b.N), "lp_iterations/op")
			b.ReportMetric(float64(rootRounds)/float64(b.N), "root_rounds/op")
			b.ReportMetric(float64(rootColumns)/float64(b.N), "root_columns/op")
		})
	}
}
