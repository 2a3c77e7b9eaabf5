package ilp_test

import (
	"context"
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
		if warm.ColdSolves != 1 {
			t.Errorf("%s: %d cold solves, want the root only", names[i], warm.ColdSolves)
		}
	}
	if branched < 1000 {
		t.Errorf("only %d nodes in all: the fixtures no longer exercise the tree", branched)
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
