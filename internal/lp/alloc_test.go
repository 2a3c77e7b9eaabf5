package lp

import (
	"context"
	"math/rand"
	"testing"
)

// allocProblem builds a dense knapsack-style LP whose simplex run takes
// many pivots — enough that any per-iteration allocation in the hot
// loop (price, chooseEntering, ftran, pivot, refactor) would dominate
// the fixed setup cost and blow the regression bound below.
func allocProblem() *Problem {
	const n, m = 120, 8
	rng := rand.New(rand.NewSource(5))
	p := &Problem{
		Maximize: true,
		C:        make([]float64, n),
		A:        make([][]float64, m),
		Op:       make([]ConstraintOp, m),
		B:        make([]float64, m),
		Hi:       make([]float64, n),
	}
	for j := 0; j < n; j++ {
		p.C[j] = 1 + rng.Float64()*9
		p.Hi[j] = 1
	}
	for i := 0; i < m; i++ {
		p.A[i] = make([]float64, n)
		for j := 0; j < n; j++ {
			p.A[i][j] = rng.Float64() * 5
		}
		p.Op[i] = LE
		p.B[i] = float64(n) / 4
	}
	return p
}

// TestSolveAllocationsIterationFree pins the simplex's allocation
// profile: everything SolveCtx allocates is workspace setup — a fixed
// count for a fixed problem shape, independent of how many pivots the
// solve takes. The bound fails go test if the iteration loop starts
// allocating (one alloc per pivot on this problem adds hundreds).
func TestSolveAllocationsIterationFree(t *testing.T) {
	p := allocProblem()
	sol, err := SolveCtx(context.Background(), p)
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != Optimal {
		t.Fatalf("status %v, want optimal", sol.Status)
	}
	if sol.Iterations < 30 {
		t.Fatalf("fixture too easy: %d simplex iterations, want enough to expose per-iteration allocation", sol.Iterations)
	}

	avg := testing.AllocsPerRun(20, func() {
		if _, err := SolveCtx(context.Background(), p); err != nil {
			t.Fatal(err)
		}
	})
	// Setup allocates the workspace (its struct, sixteen vectors) and the
	// Solution. 24 gives that headroom; per-iteration allocation would
	// add at least sol.Iterations on top.
	t.Logf("Solve: %.1f allocations, %d simplex iterations", avg, sol.Iterations)
	if avg > 24 {
		t.Errorf("Solve allocates %.1f objects (%d iterations); the simplex loop must not allocate per pivot", avg, sol.Iterations)
	}
}

// TestReoptimizeAllocatesZero: after NewWorkspace a bound change and the
// warm re-optimize that follows it allocate nothing — the per-node cost
// of branch and bound.
func TestReoptimizeAllocatesZero(t *testing.T) {
	ctx := context.Background()
	w, err := NewWorkspace(packageLP(5, 500, 4))
	if err != nil {
		t.Fatal(err)
	}
	if st, err := w.Solve(ctx); err != nil || st != Optimal {
		t.Fatalf("root %v, %v", st, err)
	}
	j := fractional(w)
	if j < 0 {
		t.Fatal("fixture has an integral relaxation")
	}
	k := 0
	avg := testing.AllocsPerRun(300, func() {
		if err := flip(w, j, k); err != nil {
			t.Fatal(err)
		}
		if _, err := w.Reoptimize(ctx); err != nil {
			t.Fatal(err)
		}
		k++
	})
	s := w.Stats()
	t.Logf("%d warm re-optimizations, %d dual pivots, %d refactorizations", s.WarmSolves, s.DualIterations, s.Refactorizations)
	if s.DualIterations < 300 || s.Refactorizations == 0 || s.ColdSolves != 1 {
		t.Fatalf("stats %+v: the run was meant to pivot, refactor and stay warm", s)
	}
	if avg != 0 {
		t.Errorf("SetBounds + Reoptimize allocates %.2f objects per call, want 0", avg)
	}
}
