package ilp_test

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"repro/internal/ilp"
	"repro/internal/lp"
)

// The edges of the sifted root, each on a problem over 200 variables —
// more than twice the first working set, so the root is sifted — whose
// first working set, the 64 best objective coefficients, leaves the
// variable in question out.

// siftProblem maximizes over n variables in [0, 1] worth 10–20 each under
// Σ xⱼ ≤ 10: the LP takes the ten best, an integral root.
func siftProblem(n int) *ilp.Problem {
	rng := rand.New(rand.NewSource(3))
	p := &ilp.Problem{LP: lp.Problem{Maximize: true, C: make([]float64, n), Lo: make([]float64, n), Hi: make([]float64, n)}}
	row := make([]float64, n)
	for j := range row {
		p.LP.C[j], p.LP.Hi[j], row[j] = 10+10*rng.Float64(), 1, 1
	}
	p.LP.A, p.LP.Op, p.LP.B = [][]float64{row}, []lp.ConstraintOp{lp.LE}, []float64{10}
	return p
}

// solveBoth solves p as SolveCtx does and over every variable, and
// requires the two to agree on the status and the objective's bits.
func solveBoth(t *testing.T, p *ilp.Problem) *ilp.Result {
	t.Helper()
	ctx, opt := context.Background(), ilp.Options{MaxNodes: 10000}
	got, _, err := ilp.SolveRecording(ctx, p, opt)
	if err != nil {
		t.Fatal(err)
	}
	want, _, err := ilp.SolveFullWidth(ctx, p, opt)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("%v, objective %v; root in %d rounds over %d, %d nodes in %d rounds over %d",
		got.Status, got.Objective, got.RootRounds, got.RootColumns, got.Nodes, got.Rounds, got.WorkingSet)
	if got.Status != want.Status || math.Float64bits(got.Objective) != math.Float64bits(want.Objective) {
		t.Errorf("%v objective %v; over every variable %v %v", got.Status, got.Objective, want.Status, want.Objective)
	}
	return got
}

// TestSiftEmptyIntegerDomainOutsideW: an integral variable whose domain
// holds no integer makes the search infeasible before any sifting, as the
// full-width root's empty-domain count does, though no working set would
// have taken it in.
func TestSiftEmptyIntegerDomainOutsideW(t *testing.T) {
	p := siftProblem(200)
	p.LP.C[150], p.LP.Lo[150], p.LP.Hi[150] = 0, 0.3, 0.7
	res := solveBoth(t, p)
	if res.Status != ilp.Infeasible || res.RootRounds != 0 {
		t.Errorf("%v after %d root rounds, want infeasible after none", res.Status, res.RootRounds)
	}
}

// TestSiftUpperBoundOnly: a variable with no lower bound cannot be held at
// it, so it is in every working set however little its objective is worth.
// Here x₁₅₀ ≤ 2 costs 1 a unit and only x₁₅₀ ≥ −3 stops it.
func TestSiftUpperBoundOnly(t *testing.T) {
	p := siftProblem(200)
	p.LP.C[150], p.LP.Lo[150], p.LP.Hi[150], p.LP.A[0][150] = -1, math.Inf(-1), 2, 0
	only := make([]float64, 200)
	only[150] = 1
	p.LP.A, p.LP.Op, p.LP.B = append(p.LP.A, only), append(p.LP.Op, lp.GE), append(p.LP.B, -3)
	res := solveBoth(t, p)
	if res.Status != ilp.Optimal {
		t.Fatalf("%v, want optimal", res.Status)
	}
	if x := res.Dense(200); x[150] != -3 || res.RootColumns <= 64 {
		t.Errorf("x₁₅₀ = %v, root over %d variables; want −3, over more than the 64 best", x[150], res.RootColumns)
	}
}

// TestSiftUnboundedColumnOutsideW: a column that no row holds back is worth
// the least of all, so the first working set leaves it out and its LP is
// bounded; pricing takes the column in and the next round finds the ray.
func TestSiftUnboundedColumnOutsideW(t *testing.T) {
	p := siftProblem(200)
	p.LP.C[150], p.LP.Hi[150], p.LP.A[0][150] = 1, math.Inf(1), 0
	res := solveBoth(t, p)
	if res.Status != ilp.Unbounded || res.RootRounds != 2 {
		t.Errorf("%v after %d root rounds, want unbounded after 2", res.Status, res.RootRounds)
	}
}

// TestSiftedIntegralRootBreaksRow is TestRoundingKeepsRowsFeasible over a
// sifted root: x₀ = 0.9999995 is within 1e-6 of 1, but rounded it breaks
// 1000·x₀ ≤ 999.9995, so the search branches on it — in working-set
// rounds, as every search over this many variables does — and finds x₀ = 0.
func TestSiftedIntegralRootBreaksRow(t *testing.T) {
	const n = 200
	p := &ilp.Problem{LP: lp.Problem{Maximize: true, C: make([]float64, n), Hi: make([]float64, n)}}
	row := make([]float64, n)
	for j := range row {
		p.LP.C[j], p.LP.Hi[j] = -1, 1
	}
	p.LP.C[0], row[0] = 1, 1000
	p.LP.A, p.LP.Op, p.LP.B = [][]float64{row}, []lp.ConstraintOp{lp.LE}, []float64{999.9995}
	res := solveBoth(t, p)
	if res.Status != ilp.Optimal {
		t.Fatalf("%v, want optimal", res.Status)
	}
	if x := res.Dense(n); x[0] != 0 || res.Rounds == 0 || res.WorkingSet >= n {
		t.Errorf("x₀ = %v after %d rounds over %d; want 0, branched in a working-set round", x[0], res.Rounds, res.WorkingSet)
	}
}

// TestSiftAllContinuous: when every variable is continuous the first
// working set is all of them, the objective's picks included, and the
// root is solved once over every column.
func TestSiftAllContinuous(t *testing.T) {
	p := siftProblem(200)
	p.Integer = make([]bool, 200)
	res := solveBoth(t, p)
	if res.Status != ilp.Optimal || res.RootRounds != 1 || res.RootColumns != 200 {
		t.Errorf("%v, root in %d rounds over %d; want optimal in one round over all 200", res.Status, res.RootRounds, res.RootColumns)
	}
}
