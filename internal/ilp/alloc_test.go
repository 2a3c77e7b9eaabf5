package ilp

import (
	"context"
	"math/rand"
	"testing"

	"repro/internal/lp"
)

// allocProblem is a deterministic 0/1 knapsack with near-substitutable
// items — the package-query shape that makes branch and bound lean on
// incumbent local search and root reduced-cost fixing.
func allocProblem() *Problem {
	const n = 40
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
// regression gate. Each node legitimately pays one tableau (the LP
// relaxation), but the per-node and per-incumbent loops — reduced-cost
// fixing over the root duals, incumbent local search, bound
// materialization — must reuse scratch and allocate nothing extra. The
// fixture is deterministic, so the node count (and thus the legitimate
// allocation total) is stable; the bound fails go test when a hot loop
// starts allocating.
func TestSolveAllocationsBounded(t *testing.T) {
	p := allocProblem()
	res, err := SolveCtx(context.Background(), p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != Optimal {
		t.Fatalf("status %v, want optimal", res.Status)
	}
	if res.Nodes < 3 {
		t.Fatalf("fixture too easy: %d nodes, want a real search tree", res.Nodes)
	}

	avg := testing.AllocsPerRun(20, func() {
		if _, err := SolveCtx(context.Background(), p, Options{}); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("Solve: %.1f allocations, %d nodes", avg, res.Nodes)
	// Measured ~30 allocations per node of setup on this fixture; a
	// per-variable allocation in the fixing loop (40 vars × nodes) or a
	// per-pair allocation in local search would multiply it.
	limit := float64(40*res.Nodes + 60)
	if avg > limit {
		t.Errorf("Solve allocates %.1f objects across %d nodes (limit %.0f); a node-loop allocation regressed", avg, res.Nodes, limit)
	}
}
