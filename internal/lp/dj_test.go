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

// randomLP is a small LP with mixed row senses and finite bounds, some of
// them negative: with right-hand sides drawn away from any anchor point,
// a fair share of the instances is infeasible.
func randomLP(rng *rand.Rand) *Problem {
	m, n := 1+rng.Intn(4), 2+rng.Intn(6)
	p := &Problem{Maximize: rng.Intn(2) == 0, C: make([]float64, n), Lo: make([]float64, n), Hi: make([]float64, n)}
	for j := 0; j < n; j++ {
		p.C[j] = math.Round(rng.NormFloat64() * 10)
		p.Lo[j] = float64(-rng.Intn(2))
		p.Hi[j] = p.Lo[j] + float64(1+rng.Intn(3))
	}
	for i := 0; i < m; i++ {
		row := make([]float64, n)
		for j := range row {
			row[j] = math.Round(rng.NormFloat64() * 4)
		}
		p.A = append(p.A, row)
		p.Op = append(p.Op, ConstraintOp(rng.Intn(3)))
		p.B = append(p.B, math.Round(rng.NormFloat64()*6))
	}
	return p
}

// TestDualsReproduceDJ: after an optimal Solve, the duals price every
// column to its DJ — dⱼ = sense·Cⱼ − y·Aⱼ — which is what lets a caller
// price a column the workspace was never given.
func TestDualsReproduceDJ(t *testing.T) {
	ctx, optimal := context.Background(), 0
	for seed := int64(0); seed < 400; seed++ {
		p := randomLP(rand.New(rand.NewSource(seed)))
		w, err := NewWorkspace(p)
		if err != nil {
			t.Fatal(err)
		}
		if st, err := w.Solve(ctx); err != nil || st != Optimal {
			continue
		}
		optimal++
		sense := -1.0
		if p.Maximize {
			sense = 1
		}
		y := w.Duals()
		for j, dj := range w.DJ() {
			d, scale := sense*p.C[j], 1+math.Abs(p.C[j])
			for i, yi := range y {
				d -= yi * p.A[i][j]
				scale += math.Abs(yi * p.A[i][j])
			}
			if math.Abs(d-dj) > 1e-9*scale {
				t.Fatalf("seed %d: column %d priced %g by the duals %v, DJ %g", seed, j, d, y, dj)
			}
		}
	}
	if t.Logf("%d optimal instances of 400", optimal); optimal < 100 {
		t.Errorf("only %d optimal instances", optimal)
	}
}

// TestInfeasibleDualsAreFarkas: after an infeasible Solve, the phase-1
// duals y certify it. Every row, its logical included, is Aᵢ·x + sᵢ = bᵢ,
// so a feasible point would make y·b = Σⱼ (y·Aⱼ)xⱼ + y·s; y proves there
// is none when y·b lies below the least that sum can be over the bounds.
func TestInfeasibleDualsAreFarkas(t *testing.T) {
	ctx, infeasible := context.Background(), 0
	for seed := int64(0); seed < 400; seed++ {
		p := randomLP(rand.New(rand.NewSource(seed)))
		w, err := NewWorkspace(p)
		if err != nil {
			t.Fatal(err)
		}
		if st, err := w.Solve(ctx); err != nil || st != Infeasible {
			continue
		}
		infeasible++
		y, least, yb := w.Duals(), 0.0, 0.0
		for i, yi := range y {
			yb += yi * p.B[i]
			// The logical: [0, ∞) on a ≤ row, (−∞, 0] on a ≥ row, 0 on =.
			if p.Op[i] == LE && yi < -1e-9 || p.Op[i] == GE && yi > 1e-9 {
				t.Fatalf("seed %d: y = %v has the wrong sign on row %d (%v)", seed, y, i, p.Op[i])
			}
		}
		for j := range p.C {
			g := 0.0
			for i, yi := range y {
				g += yi * p.A[i][j]
			}
			least += math.Min(g*p.Lo[j], g*p.Hi[j])
		}
		if yb >= least-1e-9 {
			t.Fatalf("seed %d: y = %v gives y·b = %g, not below %g", seed, y, yb, least)
		}
	}
	if t.Logf("%d infeasible instances of 400", infeasible); infeasible < 50 {
		t.Errorf("only %d infeasible instances", infeasible)
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
