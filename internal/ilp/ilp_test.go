package ilp

import (
	"context"
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/lp"
)

func solveOK(t *testing.T, p *Problem, opt Options) *Result {
	t.Helper()
	r, err := SolveCtx(context.Background(), p, opt)
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	return r
}

func TestKnapsackSmall(t *testing.T) {
	// Classic 0/1 knapsack: values {60,100,120}, weights {10,20,30},
	// capacity 50 → take items 2,3: value 220.
	p := &Problem{
		LP: lp.Problem{
			Maximize: true,
			C:        []float64{60, 100, 120},
			A:        [][]float64{{10, 20, 30}},
			Op:       []lp.ConstraintOp{lp.LE},
			B:        []float64{50},
			Hi:       []float64{1, 1, 1},
		},
	}
	r := solveOK(t, p, Options{})
	if r.Status != Optimal || math.Abs(r.Objective-220) > 1e-6 {
		t.Fatalf("got %v obj %g, want optimal 220", r.Status, r.Objective)
	}
	if x := r.Dense(3); math.Round(x[0]) != 0 || math.Round(x[1]) != 1 || math.Round(x[2]) != 1 {
		t.Errorf("solution %v, want [0 1 1]", x)
	}
}

func TestEqualityCardinality(t *testing.T) {
	// Pick exactly 3 of 6 items minimizing cost: costs {5,1,4,2,8,3}
	// → 1+2+3 = 6.
	p := &Problem{
		LP: lp.Problem{
			C:  []float64{5, 1, 4, 2, 8, 3},
			A:  [][]float64{{1, 1, 1, 1, 1, 1}},
			Op: []lp.ConstraintOp{lp.EQ},
			B:  []float64{3},
			Hi: []float64{1, 1, 1, 1, 1, 1},
		},
	}
	r := solveOK(t, p, Options{})
	if r.Status != Optimal || math.Abs(r.Objective-6) > 1e-6 {
		t.Fatalf("got %v obj %g, want optimal 6", r.Status, r.Objective)
	}
}

func TestInfeasibleILP(t *testing.T) {
	// sum = 2 with all variables ≤ 0 is impossible.
	p := &Problem{
		LP: lp.Problem{
			Maximize: true,
			C:        []float64{1, 1},
			A:        [][]float64{{1, 1}},
			Op:       []lp.ConstraintOp{lp.EQ},
			B:        []float64{2},
			Hi:       []float64{0, 0},
		},
	}
	r := solveOK(t, p, Options{})
	if r.Status != Infeasible {
		t.Fatalf("status = %v, want infeasible", r.Status)
	}
}

func TestIntegerInfeasibleButLPFeasible(t *testing.T) {
	// 2x = 1 with x integer: LP relaxation feasible (x=0.5), ILP not.
	p := &Problem{
		LP: lp.Problem{
			Maximize: true,
			C:        []float64{1},
			A:        [][]float64{{2}},
			Op:       []lp.ConstraintOp{lp.EQ},
			B:        []float64{1},
			Hi:       []float64{1},
		},
	}
	r := solveOK(t, p, Options{})
	if r.Status != Infeasible {
		t.Fatalf("status = %v, want infeasible (LP-feasible, ILP-infeasible)", r.Status)
	}
}

// TestRoundingKeepsRowsFeasible: an LP value within 1e-6 of an integer is
// taken as that integer only if the rounded point still satisfies every
// row. x = 0.9999995 is optimal for the relaxation; rounded to 1 it breaks
// 1000·x ≤ 999.9995, so the search branches on it and finds x = 0.
func TestRoundingKeepsRowsFeasible(t *testing.T) {
	p := &Problem{
		LP: lp.Problem{
			Maximize: true,
			C:        []float64{1},
			A:        [][]float64{{1000}},
			Op:       []lp.ConstraintOp{lp.LE},
			B:        []float64{999.9995},
			Hi:       []float64{1},
		},
	}
	r := solveOK(t, p, Options{})
	if x := r.Dense(1); r.Status != Optimal || x[0] != 0 {
		t.Fatalf("got %v x = %v, want optimal x = [0]", r.Status, x)
	}
}

func TestUnboundedILP(t *testing.T) {
	p := &Problem{
		LP: lp.Problem{
			Maximize: true,
			C:        []float64{1},
			A:        [][]float64{{1}},
			Op:       []lp.ConstraintOp{lp.GE},
			B:        []float64{0},
		},
	}
	r := solveOK(t, p, Options{})
	if r.Status != Unbounded {
		t.Fatalf("status = %v, want unbounded", r.Status)
	}
}

func TestMixedIntegerProblem(t *testing.T) {
	// x integer, y continuous: max x + y, x + y <= 2.5, x <= 1.8 → x=1, y=1.5.
	p := &Problem{
		LP: lp.Problem{
			Maximize: true,
			C:        []float64{1, 1},
			A:        [][]float64{{1, 1}},
			Op:       []lp.ConstraintOp{lp.LE},
			B:        []float64{2.5},
			Hi:       []float64{1.8, math.Inf(1)},
		},
		Integer: []bool{true, false},
	}
	r := solveOK(t, p, Options{})
	if r.Status != Optimal || math.Abs(r.Objective-2.5) > 1e-6 {
		t.Fatalf("got %v obj %g, want optimal 2.5", r.Status, r.Objective)
	}
	if x := r.Dense(2); math.Abs(x[0]-1) > 1e-6 {
		t.Errorf("integer part x0 = %g, want 1", x[0])
	}
}

func TestRepeatBoundsGeneralInteger(t *testing.T) {
	// REPEAT-style general integers: max 3x + 2y, 2x + y <= 7, x,y in [0,3].
	// Optimum: x=2, y=3 → 12.
	p := &Problem{
		LP: lp.Problem{
			Maximize: true,
			C:        []float64{3, 2},
			A:        [][]float64{{2, 1}},
			Op:       []lp.ConstraintOp{lp.LE},
			B:        []float64{7},
			Hi:       []float64{3, 3},
		},
	}
	r := solveOK(t, p, Options{})
	if r.Status != Optimal || math.Abs(r.Objective-12) > 1e-6 {
		t.Fatalf("got %v obj %g, want optimal 12", r.Status, r.Objective)
	}
}

func TestNodeBudgetResourceLimit(t *testing.T) {
	// A problem that needs branching, with a 1-node budget, must report
	// ResourceLimit (the CPLEX "choke" emulation).
	rng := rand.New(rand.NewSource(5))
	n := 30
	c := make([]float64, n)
	w := make([]float64, n)
	hi := make([]float64, n)
	for i := 0; i < n; i++ {
		c[i] = 1 + rng.Float64()
		w[i] = 1 + rng.Float64()
		hi[i] = 1
	}
	p := &Problem{
		LP: lp.Problem{
			Maximize: true,
			C:        c,
			A:        [][]float64{w},
			Op:       []lp.ConstraintOp{lp.LE},
			B:        []float64{7.5},
			Hi:       hi,
		},
	}
	r := solveOK(t, p, Options{MaxNodes: 1})
	if r.Status != ResourceLimit {
		t.Fatalf("status = %v, want resource-limit", r.Status)
	}
}

func TestTimeLimit(t *testing.T) {
	// With an already-expired deadline the solver must stop quickly.
	rng := rand.New(rand.NewSource(11))
	n := 40
	c := make([]float64, n)
	w := make([]float64, n)
	hi := make([]float64, n)
	for i := 0; i < n; i++ {
		c[i] = rng.Float64()
		w[i] = rng.Float64()
		hi[i] = 1
	}
	p := &Problem{
		LP: lp.Problem{
			Maximize: true,
			C:        c,
			A:        [][]float64{w},
			Op:       []lp.ConstraintOp{lp.LE},
			B:        []float64{float64(n) / 5},
			Hi:       hi,
		},
	}
	r := solveOK(t, p, Options{TimeLimit: time.Nanosecond})
	if r.Status != ResourceLimit && r.Status != Optimal {
		t.Fatalf("status = %v, want resource-limit or fast optimal", r.Status)
	}
}

func TestBadIntegerLength(t *testing.T) {
	p := &Problem{
		LP:      lp.Problem{Maximize: true, C: []float64{1}, Hi: []float64{1}},
		Integer: []bool{true, false},
	}
	if _, err := SolveCtx(context.Background(), p, Options{}); err == nil {
		t.Fatal("mismatched Integer length accepted")
	}
}

// kth returns the k-th smallest of v, 1 ≤ k ≤ len(v), through the heap
// the working-set selection keeps.
func kth(v []float64, k int) float64 {
	var h kHeap
	for _, x := range v {
		h.push(x, k)
	}
	return h[0]
}

// TestKth: kth agrees with sorting, ties and descending input included.
func TestKth(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 500; trial++ {
		v := make([]float64, 1+rng.Intn(300))
		for i := range v {
			v[i] = float64(rng.Intn(50))
			if trial%3 == 0 {
				v[i] = -float64(i) // every value displaces the heap's largest
			}
		}
		k := 1 + rng.Intn(len(v))
		sorted := slices.Clone(v)
		slices.Sort(sorted)
		if got := kth(v, k); got != sorted[k-1] {
			t.Fatalf("kth(%v, %d) = %v, want %v", sorted, k, got, sorted[k-1])
		}
	}
}

// bruteForce enumerates all integer points in the (small) box [Lo, Hi]
// (Lo defaults to 0) and returns the best feasible objective, or NaN
// when none is feasible.
func bruteForce(p *Problem) float64 {
	n := p.LP.NumVars()
	best := math.NaN()
	var rec func(j int, x []float64)
	rec = func(j int, x []float64) {
		if j == n {
			for i := range p.LP.B {
				lhs := 0.0
				for k := 0; k < n; k++ {
					lhs += p.LP.A[i][k] * x[k]
				}
				switch p.LP.Op[i] {
				case lp.LE:
					if lhs > p.LP.B[i]+1e-9 {
						return
					}
				case lp.GE:
					if lhs < p.LP.B[i]-1e-9 {
						return
					}
				case lp.EQ:
					if math.Abs(lhs-p.LP.B[i]) > 1e-9 {
						return
					}
				}
			}
			obj := 0.0
			for k := 0; k < n; k++ {
				obj += p.LP.C[k] * x[k]
			}
			if math.IsNaN(best) {
				best = obj
			} else if p.LP.Maximize && obj > best {
				best = obj
			} else if !p.LP.Maximize && obj < best {
				best = obj
			}
			return
		}
		lo, hi := 0, int(p.LP.Hi[j])
		if p.LP.Lo != nil {
			lo = int(p.LP.Lo[j])
		}
		for v := lo; v <= hi; v++ {
			x[j] = float64(v)
			rec(j+1, x)
		}
	}
	rec(0, make([]float64, n))
	return best
}

// Property: branch and bound matches exhaustive enumeration on random
// small ILPs (maximization and minimization, LE/GE/EQ rows).
func TestQuickMatchesBruteForce(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(4)     // 2..5 vars
		maxHi := 1 + rng.Intn(2) // bounds 0..1 or 0..2
		p := &Problem{
			LP: lp.Problem{
				Maximize: rng.Intn(2) == 0,
				C:        make([]float64, n),
				Hi:       make([]float64, n),
			},
		}
		for j := 0; j < n; j++ {
			p.LP.C[j] = math.Round(rng.NormFloat64()*10) / 2
			p.LP.Hi[j] = float64(maxHi)
		}
		rows := 1 + rng.Intn(3)
		for i := 0; i < rows; i++ {
			row := make([]float64, n)
			for j := range row {
				row[j] = math.Round(rng.NormFloat64() * 4)
			}
			op := []lp.ConstraintOp{lp.LE, lp.GE}[rng.Intn(2)]
			// Anchor the RHS at a random integer point so EQ rows are
			// satisfiable reasonably often.
			lhs := 0.0
			for j := range row {
				lhs += row[j] * float64(rng.Intn(maxHi+1))
			}
			if rng.Intn(4) == 0 {
				op = lp.EQ
			}
			p.LP.A = append(p.LP.A, row)
			p.LP.Op = append(p.LP.Op, op)
			p.LP.B = append(p.LP.B, lhs)
		}
		r, err := SolveCtx(context.Background(), p, Options{})
		if err != nil {
			return false
		}
		want := bruteForce(p)
		if math.IsNaN(want) {
			return r.Status == Infeasible
		}
		if r.Status != Optimal {
			return false
		}
		return math.Abs(r.Objective-want) < 1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Error(err)
	}
}

// Property: the returned solution is always integral and feasible.
func TestQuickSolutionIntegralFeasible(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 3 + rng.Intn(10)
		p := &Problem{
			LP: lp.Problem{
				Maximize: true,
				C:        make([]float64, n),
				Hi:       make([]float64, n),
			},
		}
		row := make([]float64, n)
		for j := 0; j < n; j++ {
			p.LP.C[j] = rng.Float64() * 10
			p.LP.Hi[j] = float64(1 + rng.Intn(3))
			row[j] = rng.Float64() * 5
		}
		p.LP.A = [][]float64{row}
		p.LP.Op = []lp.ConstraintOp{lp.LE}
		p.LP.B = []float64{2 + rng.Float64()*10}
		r, err := SolveCtx(context.Background(), p, Options{})
		if err != nil || r.Status != Optimal {
			return false
		}
		lhs, x := 0.0, r.Dense(n)
		for j := 0; j < n; j++ {
			if math.Abs(x[j]-math.Round(x[j])) > 1e-9 {
				return false
			}
			if x[j] < -1e-9 || x[j] > p.LP.Hi[j]+1e-9 {
				return false
			}
			lhs += row[j] * x[j]
		}
		return lhs <= p.LP.B[0]+1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}
