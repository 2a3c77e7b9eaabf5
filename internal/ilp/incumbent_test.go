package ilp

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"repro/internal/lp"
)

// hardKnapsack builds an instance that cannot be finished within a tiny
// node budget but yields an early incumbent via plunging.
func hardKnapsack(n int, seed int64) *Problem {
	rng := rand.New(rand.NewSource(seed))
	c := make([]float64, n)
	w := make([]float64, n)
	hi := make([]float64, n)
	ones := make([]float64, n)
	for i := 0; i < n; i++ {
		c[i] = 10 + rng.Float64()
		w[i] = 10 + rng.Float64()
		hi[i] = 1
		ones[i] = 1
	}
	return &Problem{
		LP: lp.Problem{
			Maximize: true,
			C:        c,
			A:        [][]float64{w, ones},
			Op:       []lp.ConstraintOp{lp.LE, lp.EQ},
			B:        []float64{float64(n) * 3, math.Floor(float64(n) / 4)},
			Hi:       hi,
		},
	}
}

func TestResourceLimitCarriesIncumbent(t *testing.T) {
	p := hardKnapsack(40, 2)
	r, err := SolveCtx(context.Background(), p, Options{MaxNodes: 3})
	if err != nil {
		t.Fatal(err)
	}
	if r.Status != ResourceLimit {
		t.Skipf("instance solved within 3 nodes (status %v)", r.Status)
	}
	if !r.HasIncumbent {
		t.Fatal("resource-limited solve has no incumbent despite plunging")
	}
	// The incumbent must be integral and feasible.
	lhs0, lhs1 := 0.0, 0.0
	for j, x := range r.Dense(p.LP.NumVars()) {
		if x != math.Round(x) {
			t.Fatalf("incumbent x[%d] = %g not integral", j, x)
		}
		lhs0 += p.LP.A[0][j] * x
		lhs1 += p.LP.A[1][j] * x
	}
	if lhs0 > p.LP.B[0]+1e-6 || math.Abs(lhs1-p.LP.B[1]) > 1e-6 {
		t.Fatalf("incumbent violates constraints: %g / %g", lhs0, lhs1)
	}
	// BestBound brackets the optimum.
	if r.BestBound < r.Objective-1e-6 {
		t.Errorf("best bound %g below incumbent %g", r.BestBound, r.Objective)
	}
}

func TestLocalSearchImprovesPlungeIncumbent(t *testing.T) {
	// With swap local search, even a 1-node budget should land close to
	// the optimum of a substitution-heavy instance.
	p := hardKnapsack(60, 3)
	limited, err := SolveCtx(context.Background(), p, Options{MaxNodes: 1})
	if err != nil {
		t.Fatal(err)
	}
	full, err := SolveCtx(context.Background(), p, Options{MaxNodes: 200000, Gap: 1e-6})
	if err != nil || full.Status != Optimal {
		t.Fatalf("reference solve: %v %v", err, full.Status)
	}
	if !limited.HasIncumbent {
		t.Fatal("no incumbent at 1 node")
	}
	if limited.Objective < 0.95*full.Objective {
		t.Errorf("1-node incumbent %g below 95%% of optimum %g", limited.Objective, full.Objective)
	}
}

func TestGapTermination(t *testing.T) {
	p := hardKnapsack(50, 4)
	loose, err := SolveCtx(context.Background(), p, Options{Gap: 0.10})
	if err != nil {
		t.Fatal(err)
	}
	tight, err := SolveCtx(context.Background(), p, Options{Gap: 1e-6})
	if err != nil {
		t.Fatal(err)
	}
	if loose.Status != Optimal || tight.Status != Optimal {
		t.Fatalf("statuses: %v %v", loose.Status, tight.Status)
	}
	if loose.Nodes > tight.Nodes {
		t.Errorf("loose gap explored more nodes (%d) than tight gap (%d)", loose.Nodes, tight.Nodes)
	}
	// The loose answer must still be within 10% of the tight one.
	if loose.Objective < 0.9*tight.Objective-1e-9 {
		t.Errorf("gap contract violated: %g vs %g", loose.Objective, tight.Objective)
	}
}

// Property: reduced-cost fixing never changes the optimum (solve with
// and without an artificially weakened incumbent by comparing against
// brute force on small instances with general-integer variables).
func TestReducedCostFixingPreservesOptimum(t *testing.T) {
	for seed := int64(0); seed < 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 3 + rng.Intn(3)
		p := &Problem{
			LP: lp.Problem{
				Maximize: rng.Intn(2) == 0,
				C:        make([]float64, n),
				Hi:       make([]float64, n),
			},
		}
		row := make([]float64, n)
		for j := 0; j < n; j++ {
			p.LP.C[j] = math.Round(rng.NormFloat64()*6) / 2
			p.LP.Hi[j] = float64(1 + rng.Intn(2))
			row[j] = float64(rng.Intn(7) - 3)
		}
		p.LP.A = [][]float64{row}
		p.LP.Op = []lp.ConstraintOp{lp.LE}
		p.LP.B = []float64{float64(rng.Intn(9) - 2)}
		r, err := SolveCtx(context.Background(), p, Options{})
		if err != nil {
			t.Fatal(err)
		}
		want := bruteForce(p)
		if math.IsNaN(want) {
			if r.Status != Infeasible {
				t.Fatalf("seed %d: got %v, want infeasible", seed, r.Status)
			}
			continue
		}
		if r.Status != Optimal || math.Abs(r.Objective-want) > 1e-6 {
			t.Fatalf("seed %d: got %v obj %g, brute force %g", seed, r.Status, r.Objective, want)
		}
	}
}
