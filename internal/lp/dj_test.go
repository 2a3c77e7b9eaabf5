package lp

import (
	"context"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// TestReducedCostsSigns: at a maximization optimum, variables nonbasic
// at their lower bound have DJ ≤ 0 and at their upper bound DJ ≥ 0.
func TestReducedCostsSigns(t *testing.T) {
	p := &Problem{
		Maximize: true,
		C:        []float64{3, 1, -2},
		A:        [][]float64{{1, 1, 1}},
		Op:       []ConstraintOp{LE},
		B:        []float64{1.5},
		Hi:       []float64{1, 1, 1},
	}
	s := solveOK(t, p)
	if s.Status != Optimal {
		t.Fatal(s.Status)
	}
	if len(s.DJ) != 3 {
		t.Fatalf("DJ length %d", len(s.DJ))
	}
	const tol = 1e-7
	for j, x := range s.X {
		switch {
		case math.Abs(x-0) < 1e-9: // at lower bound
			if s.DJ[j] > tol {
				t.Errorf("var %d at lower bound has DJ %g > 0", j, s.DJ[j])
			}
		case math.Abs(x-1) < 1e-9: // at upper bound (may also be basic)
		}
	}
	// x2 (coefficient −2) must be at 0 with strictly negative DJ.
	if s.X[2] != 0 || s.DJ[2] >= 0 {
		t.Errorf("x2 = %g DJ %g, want 0 with negative DJ", s.X[2], s.DJ[2])
	}
}

// TestQuickReducedCostBound: the one-step dual bound derived from DJ is
// valid — re-solving with a variable forced up by one unit cannot beat
// rootObjective + DJ.
func TestQuickReducedCostBound(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 3 + rng.Intn(4)
		c := make([]float64, n)
		w := make([]float64, n)
		hi := make([]float64, n)
		for j := 0; j < n; j++ {
			c[j] = rng.Float64() * 10
			w[j] = 0.5 + rng.Float64()*2
			hi[j] = 3
		}
		p := &Problem{
			Maximize: true,
			C:        c,
			A:        [][]float64{w},
			Op:       []ConstraintOp{LE},
			B:        []float64{2 + rng.Float64()*3},
			Hi:       hi,
		}
		s, err := SolveCtx(context.Background(), p)
		if err != nil || s.Status != Optimal {
			return false
		}
		// Pick a variable at its lower bound.
		for j := 0; j < n; j++ {
			if s.X[j] > 1e-9 {
				continue
			}
			forced := *p
			forced.Lo = make([]float64, n)
			forced.Lo[j] = 1
			fs, err := SolveCtx(context.Background(), &forced)
			if err != nil {
				return false
			}
			if fs.Status == Infeasible {
				continue // forcing made it infeasible; bound trivially holds
			}
			if fs.Status != Optimal {
				return false
			}
			if fs.Objective > s.Objective+s.DJ[j]+1e-6 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}
