package ilp

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"repro/internal/lp"
)

// allocProblem is a deterministic 0/1 knapsack with near-substitutable
// items — the package-query shape that makes branch and bound lean on
// incumbent local search and root reduced-cost fixing.
func allocProblem() *Problem { return allocKnapsack(40) }

// allocKnapsack is allocProblem's knapsack over n items.
func allocKnapsack(n int) *Problem {
	rng := rand.New(rand.NewSource(11))
	p := &Problem{LP: lp.Problem{
		Maximize: true,
		C:        make([]float64, n),
		A:        [][]float64{make([]float64, n), make([]float64, n)},
		Op:       []lp.ConstraintOp{lp.LE, lp.EQ},
		B:        []float64{21.3, 6},
		Hi:       make([]float64, n),
	}}
	for j := 0; j < n; j++ {
		p.LP.C[j] = 1 + rng.Float64()*9
		p.LP.A[0][j] = 1 + rng.Float64()*9
		p.LP.A[1][j] = 1
		p.LP.Hi[j] = 1
	}
	return p
}

// TestSolveAllocationsBounded is the branch-and-bound allocation
// regression gate. A solve allocates its set-up — the LP workspace, the
// bound and scratch vectors, the first node chunk, the heap — and one
// vector per installed incumbent when a callback wants a copy; a node
// allocates nothing (the relaxation re-optimizes in place, nodes come
// from the arena, reduced-cost fixing and local search reuse scratch,
// local search's point and block tops included).
// So the bound is a constant, not a multiple of the node count, and it
// is well below one allocation per node on this fixture.
func TestSolveAllocationsBounded(t *testing.T) {
	p := allocProblem()
	res, err := SolveCtx(context.Background(), p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != Optimal {
		t.Fatalf("status %v, want optimal", res.Status)
	}
	if res.Nodes < 40 {
		t.Fatalf("fixture too easy: %d nodes, want a real search tree", res.Nodes)
	}

	avg := testing.AllocsPerRun(20, func() {
		if _, err := SolveCtx(context.Background(), p, Options{}); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("Solve: %.1f allocations, %d nodes, %d incumbents", avg, res.Nodes, res.Incumbents)
	// Measured 22: 15 for lp.NewWorkspace and 7 for the search's own
	// set-up (40 before its storage sized by the variable count was reused
	// across solves and its chain and heap were sized up front). The
	// fixture's 40 variables are searched all at once, so no working-set
	// round builds a problem of its own.
	const limit = 40
	if avg > limit {
		t.Errorf("Solve allocates %.1f objects across %d nodes (limit %d); a node-loop allocation regressed", avg, res.Nodes, limit)
	}
}

// TestSolveAllocationsWorkingSet is the same gate over more than 128
// variables, where the root is sifted and the tree searches in rounds:
// each sifting round and each working-set round builds its problem and
// workspace once, sized to the set, and a node still allocates nothing.
func TestSolveAllocationsWorkingSet(t *testing.T) {
	p := allocKnapsack(400)
	res, err := SolveCtx(context.Background(), p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != Optimal {
		t.Fatalf("status %v, want optimal", res.Status)
	}
	if res.RootColumns >= 400 || res.Rounds < 1 || res.Nodes < 40 {
		t.Fatalf("fixture too easy: root over %d variables, %d nodes in %d rounds; want a sifted root and a working-set search",
			res.RootColumns, res.Nodes, res.Rounds)
	}
	avg := testing.AllocsPerRun(20, func() {
		if _, err := SolveCtx(context.Background(), p, Options{}); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("Solve: %.1f allocations, root in %d rounds over %d, %d nodes in %d rounds over %d",
		avg, res.RootRounds, res.RootColumns, res.Nodes, res.Rounds, res.WorkingSet)
	// Measured 59 in one root round and one working-set round over 64 of
	// the 400 (91 before the solver's scratch was reused across solves);
	// appending each round's problem from nil instead of sizing it to the
	// set cost 151.
	const limit = 100
	if avg > limit {
		t.Errorf("Solve allocates %.1f objects (limit %d); a working-set round or a node allocates more", avg, limit)
	}
}

// TestSolveAllocationsWide is the gate on what a solve allocates per
// column over many more variables than its LP ever holds: from the second
// solve on, everything sized by the variable count comes from the solver's
// reused scratch and the result holds only the incumbent's entries, so
// the bytes per column are what is sized by the working set, well under 1.
func TestSolveAllocationsWide(t *testing.T) {
	const n = 200000
	p := allocKnapsack(n)
	ctx := context.Background()
	if _, err := SolveCtx(ctx, p, Options{}); err != nil {
		t.Fatal(err)
	}
	perColumn := make([]float64, 5)
	var before, after runtime.MemStats
	for i := range perColumn {
		runtime.ReadMemStats(&before)
		if _, err := SolveCtx(ctx, p, Options{}); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		perColumn[i] = float64(after.TotalAlloc-before.TotalAlloc) / n
	}
	// The least: a collection between two solves empties the pool, and
	// under the race detector the pool drops a quarter of what it is given,
	// but what every solve allocates shows in each of them.
	least := slices.Min(perColumn)
	t.Logf("Solve over %d variables: %.2f B per column (least of %v)", n, least, perColumn)
	const limit = 1
	if least > limit {
		t.Errorf("Solve allocates %.2f B per column (limit %d); something sized by the variable count is allocated per solve", least, limit)
	}
}

// BenchmarkSolveWide is the wide rung of the ladder: allocKnapsack over
// 20 000 and 200 000 variables, whose sifted LP stays 64 to 128 columns
// wide, so what a solve costs beyond it is per-column bookkeeping.
func BenchmarkSolveWide(b *testing.B) {
	for _, n := range []int{20000, 200000} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			p := allocKnapsack(n)
			ctx := context.Background()
			var res *Result
			var err error
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if res, err = SolveCtx(ctx, p, Options{}); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(res.Nodes), "nodes")
			b.ReportMetric(float64(res.RootRounds), "root_rounds")
			b.ReportMetric(float64(res.Incumbents), "incumbents")
		})
	}
}
