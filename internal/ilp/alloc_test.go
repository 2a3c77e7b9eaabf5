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
// from the arena, reduced-cost fixing and local search reuse scratch).
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
	// Measured 40: 15 for lp.NewWorkspace and 25 for the search's own
	// set-up. The fixture's 40 variables are searched all at once, so no
	// working-set round builds a problem of its own.
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
	// Measured 91 in one root round and one working-set round over 64 of
	// the 400; appending each round's problem from nil instead of sizing
	// it to the set cost 151.
	const limit = 100
	if avg > limit {
		t.Errorf("Solve allocates %.1f objects (limit %d); a working-set round or a node allocates more", avg, limit)
	}
}
