package lp

import (
	"context"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func solveOK(t *testing.T, p *Problem) *Solution {
	t.Helper()
	s, err := SolveCtx(context.Background(), p)
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	return s
}

func checkFeasible(t *testing.T, p *Problem, x []float64, tol float64) {
	t.Helper()
	for j := range x {
		lo, hi := p.Bounds(j)
		if x[j] < lo-tol || x[j] > hi+tol {
			t.Errorf("x[%d] = %g violates bounds [%g, %g]", j, x[j], lo, hi)
		}
	}
	for i := range p.B {
		lhs := 0.0
		for j := range x {
			lhs += p.A[i][j] * x[j]
		}
		switch p.Op[i] {
		case LE:
			if lhs > p.B[i]+tol {
				t.Errorf("row %d: %g <= %g violated", i, lhs, p.B[i])
			}
		case GE:
			if lhs < p.B[i]-tol {
				t.Errorf("row %d: %g >= %g violated", i, lhs, p.B[i])
			}
		case EQ:
			if math.Abs(lhs-p.B[i]) > tol {
				t.Errorf("row %d: %g = %g violated", i, lhs, p.B[i])
			}
		}
	}
}

func TestSimpleMaximize(t *testing.T) {
	// max 3x + 2y s.t. x + y <= 4, x + 3y <= 6, x,y >= 0.
	// Optimum at (4, 0): obj 12.
	p := &Problem{
		Maximize: true,
		C:        []float64{3, 2},
		A:        [][]float64{{1, 1}, {1, 3}},
		Op:       []ConstraintOp{LE, LE},
		B:        []float64{4, 6},
	}
	s := solveOK(t, p)
	if s.Status != Optimal {
		t.Fatalf("status = %v, want optimal", s.Status)
	}
	if math.Abs(s.Objective-12) > 1e-6 {
		t.Errorf("objective = %g, want 12", s.Objective)
	}
	checkFeasible(t, p, s.X, 1e-6)
}

func TestSimpleMinimize(t *testing.T) {
	// min x + y s.t. x + 2y >= 4, 3x + y >= 6, x,y >= 0.
	// Optimum at intersection: x=8/5, y=6/5, obj 14/5.
	p := &Problem{
		C:  []float64{1, 1},
		A:  [][]float64{{1, 2}, {3, 1}},
		Op: []ConstraintOp{GE, GE},
		B:  []float64{4, 6},
	}
	s := solveOK(t, p)
	if s.Status != Optimal {
		t.Fatalf("status = %v, want optimal", s.Status)
	}
	if math.Abs(s.Objective-2.8) > 1e-6 {
		t.Errorf("objective = %g, want 2.8", s.Objective)
	}
	checkFeasible(t, p, s.X, 1e-6)
}

func TestEqualityConstraint(t *testing.T) {
	// max x + 4y s.t. x + y = 3, y <= 2, x,y >= 0 → (1,2), obj 9.
	p := &Problem{
		Maximize: true,
		C:        []float64{1, 4},
		A:        [][]float64{{1, 1}, {0, 1}},
		Op:       []ConstraintOp{EQ, LE},
		B:        []float64{3, 2},
	}
	s := solveOK(t, p)
	if s.Status != Optimal || math.Abs(s.Objective-9) > 1e-6 {
		t.Fatalf("got %v obj %g, want optimal 9", s.Status, s.Objective)
	}
	checkFeasible(t, p, s.X, 1e-6)
}

func TestVariableUpperBounds(t *testing.T) {
	// max x + y, x + y <= 10, 0 <= x <= 2, 0 <= y <= 3 → obj 5.
	p := &Problem{
		Maximize: true,
		C:        []float64{1, 1},
		A:        [][]float64{{1, 1}},
		Op:       []ConstraintOp{LE},
		B:        []float64{10},
		Hi:       []float64{2, 3},
	}
	s := solveOK(t, p)
	if s.Status != Optimal || math.Abs(s.Objective-5) > 1e-6 {
		t.Fatalf("got %v obj %g, want optimal 5", s.Status, s.Objective)
	}
}

func TestNegativeLowerBounds(t *testing.T) {
	// min x + y with -5 <= x <= 5, -5 <= y <= 5, x + y >= -3 → obj -3.
	p := &Problem{
		C:  []float64{1, 1},
		A:  [][]float64{{1, 1}},
		Op: []ConstraintOp{GE},
		B:  []float64{-3},
		Lo: []float64{-5, -5},
		Hi: []float64{5, 5},
	}
	s := solveOK(t, p)
	if s.Status != Optimal || math.Abs(s.Objective-(-3)) > 1e-6 {
		t.Fatalf("got %v obj %g, want optimal -3", s.Status, s.Objective)
	}
	checkFeasible(t, p, s.X, 1e-6)
}

func TestInfeasible(t *testing.T) {
	// x >= 5 and x <= 2.
	p := &Problem{
		Maximize: true,
		C:        []float64{1},
		A:        [][]float64{{1}, {1}},
		Op:       []ConstraintOp{GE, LE},
		B:        []float64{5, 2},
	}
	s := solveOK(t, p)
	if s.Status != Infeasible {
		t.Fatalf("status = %v, want infeasible", s.Status)
	}
}

func TestUnbounded(t *testing.T) {
	// max x with x >= 1 only.
	p := &Problem{
		Maximize: true,
		C:        []float64{1},
		A:        [][]float64{{1}},
		Op:       []ConstraintOp{GE},
		B:        []float64{1},
	}
	s := solveOK(t, p)
	if s.Status != Unbounded {
		t.Fatalf("status = %v, want unbounded", s.Status)
	}
}

func TestZeroRows(t *testing.T) {
	// No constraints: max over bounds alone.
	p := &Problem{
		Maximize: true,
		C:        []float64{2, -1},
		A:        nil,
		Op:       nil,
		B:        nil,
		Hi:       []float64{4, 9},
	}
	s := solveOK(t, p)
	if s.Status != Optimal || math.Abs(s.Objective-8) > 1e-9 {
		t.Fatalf("got %v obj %g, want optimal 8", s.Status, s.Objective)
	}
}

func TestVacuousObjective(t *testing.T) {
	// Feasibility-only problem: max 0 subject to x + y = 2.
	p := &Problem{
		Maximize: true,
		C:        []float64{0, 0},
		A:        [][]float64{{1, 1}},
		Op:       []ConstraintOp{EQ},
		B:        []float64{2},
		Hi:       []float64{1.5, 1.5},
	}
	s := solveOK(t, p)
	if s.Status != Optimal {
		t.Fatalf("status = %v, want optimal", s.Status)
	}
	checkFeasible(t, p, s.X, 1e-6)
}

func TestFixedVariable(t *testing.T) {
	// Variable fixed by lo == hi participates correctly.
	p := &Problem{
		Maximize: true,
		C:        []float64{1, 1},
		A:        [][]float64{{1, 1}},
		Op:       []ConstraintOp{LE},
		B:        []float64{10},
		Lo:       []float64{3, 0},
		Hi:       []float64{3, 4},
	}
	s := solveOK(t, p)
	if s.Status != Optimal || math.Abs(s.Objective-7) > 1e-6 {
		t.Fatalf("got %v obj %g, want optimal 7", s.Status, s.Objective)
	}
	if math.Abs(s.X[0]-3) > 1e-9 {
		t.Errorf("fixed variable x0 = %g, want 3", s.X[0])
	}
}

func TestValidationErrors(t *testing.T) {
	cases := []*Problem{
		{C: []float64{1}, A: [][]float64{{1, 2}}, Op: []ConstraintOp{LE}, B: []float64{1}},  // row width
		{C: []float64{1}, A: [][]float64{{1}}, Op: []ConstraintOp{LE}, B: []float64{1, 2}},  // row count
		{C: []float64{1}, Lo: []float64{2}, Hi: []float64{1}},                               // empty domain
		{C: []float64{1}, Lo: []float64{math.Inf(-1)}},                                      // free var
		{C: []float64{1}, A: [][]float64{{1}}, Op: []ConstraintOp{LE, GE}, B: []float64{1}}, // op count
		{C: []float64{1, 2}, A: nil, Op: nil, B: nil, Lo: []float64{0}},                     // lo length
		{C: []float64{1, 2}, A: nil, Op: nil, B: nil, Hi: []float64{1}},                     // hi length
	}
	for i, p := range cases {
		if _, err := SolveCtx(context.Background(), p); err == nil {
			t.Errorf("case %d: invalid problem accepted", i)
		}
	}
}

func TestDegenerateLP(t *testing.T) {
	// Classic degenerate problem (multiple constraints through one vertex).
	p := &Problem{
		Maximize: true,
		C:        []float64{2, 3},
		A:        [][]float64{{1, 1}, {1, 1}, {2, 2}, {1, 0}},
		Op:       []ConstraintOp{LE, LE, LE, LE},
		B:        []float64{4, 4, 8, 4},
	}
	s := solveOK(t, p)
	if s.Status != Optimal || math.Abs(s.Objective-12) > 1e-6 {
		t.Fatalf("got %v obj %g, want optimal 12", s.Status, s.Objective)
	}
}

func TestRangedConstraintViaTwoRows(t *testing.T) {
	// 2 <= x + y <= 3 as two rows; min x + 2y → x=2, y=0, obj 2.
	p := &Problem{
		C:  []float64{1, 2},
		A:  [][]float64{{1, 1}, {1, 1}},
		Op: []ConstraintOp{GE, LE},
		B:  []float64{2, 3},
	}
	s := solveOK(t, p)
	if s.Status != Optimal || math.Abs(s.Objective-2) > 1e-6 {
		t.Fatalf("got %v obj %g, want optimal 2", s.Status, s.Objective)
	}
}

func TestLargeKnapsackLP(t *testing.T) {
	// Fractional knapsack with 500 items: LP optimum is the greedy
	// density solution; verify against it.
	rng := rand.New(rand.NewSource(7))
	n := 500
	value := make([]float64, n)
	weight := make([]float64, n)
	for i := range value {
		value[i] = 1 + rng.Float64()*9
		weight[i] = 1 + rng.Float64()*9
	}
	capacity := 100.0
	hi := make([]float64, n)
	for i := range hi {
		hi[i] = 1
	}
	p := &Problem{
		Maximize: true,
		C:        value,
		A:        [][]float64{weight},
		Op:       []ConstraintOp{LE},
		B:        []float64{capacity},
		Hi:       hi,
	}
	s := solveOK(t, p)
	if s.Status != Optimal {
		t.Fatalf("status = %v", s.Status)
	}
	// Greedy fractional optimum.
	type item struct{ v, w float64 }
	items := make([]item, n)
	for i := range items {
		items[i] = item{value[i], weight[i]}
	}
	// Sort by density descending.
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if items[j].v/items[j].w > items[i].v/items[i].w {
				items[i], items[j] = items[j], items[i]
			}
		}
	}
	rem, greedy := capacity, 0.0
	for _, it := range items {
		take := math.Min(1, rem/it.w)
		greedy += take * it.v
		rem -= take * it.w
		if rem <= 0 {
			break
		}
	}
	if math.Abs(s.Objective-greedy) > 1e-5 {
		t.Errorf("LP objective %g differs from greedy fractional optimum %g", s.Objective, greedy)
	}
	checkFeasible(t, p, s.X, 1e-6)
}

// Property: for random feasible 2-variable LPs, the simplex solution is
// feasible and at least as good as a dense grid scan over the box.
func TestQuickGridDominance(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		p := &Problem{
			Maximize: true,
			C:        []float64{rng.NormFloat64(), rng.NormFloat64()},
			Hi:       []float64{1 + rng.Float64()*4, 1 + rng.Float64()*4},
		}
		// Anchor feasibility of every row at one shared interior point q.
		q := []float64{rng.Float64() * p.Hi[0], rng.Float64() * p.Hi[1]}
		rows := 1 + rng.Intn(3)
		for i := 0; i < rows; i++ {
			a := []float64{rng.NormFloat64(), rng.NormFloat64()}
			b := a[0]*q[0] + a[1]*q[1] + rng.Float64()
			p.A = append(p.A, a)
			p.Op = append(p.Op, LE)
			p.B = append(p.B, b)
		}
		s, err := SolveCtx(context.Background(), p)
		if err != nil || s.Status != Optimal {
			return false
		}
		// Feasibility of the returned point.
		for i := range p.B {
			if p.A[i][0]*s.X[0]+p.A[i][1]*s.X[1] > p.B[i]+1e-6 {
				return false
			}
		}
		// Grid scan cannot beat the simplex.
		const steps = 40
		for i := 0; i <= steps; i++ {
			for j := 0; j <= steps; j++ {
				x := float64(i) / steps * p.Hi[0]
				y := float64(j) / steps * p.Hi[1]
				ok := true
				for r := range p.B {
					if p.A[r][0]*x+p.A[r][1]*y > p.B[r]+1e-9 {
						ok = false
						break
					}
				}
				if ok && p.C[0]*x+p.C[1]*y > s.Objective+1e-6 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// Property: minimizing C equals negating a maximization of −C.
func TestQuickMinMaxDuality(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(4)
		c := make([]float64, n)
		hi := make([]float64, n)
		row := make([]float64, n)
		for j := 0; j < n; j++ {
			c[j] = rng.NormFloat64()
			hi[j] = 1 + rng.Float64()*3
			row[j] = rng.Float64()
		}
		base := &Problem{
			C:  c,
			A:  [][]float64{row},
			Op: []ConstraintOp{LE},
			B:  []float64{1 + rng.Float64()*float64(n)},
			Hi: hi,
		}
		minSol, err1 := SolveCtx(context.Background(), base)
		negC := make([]float64, n)
		for j := range c {
			negC[j] = -c[j]
		}
		maxP := *base
		maxP.C = negC
		maxP.Maximize = true
		maxSol, err2 := SolveCtx(context.Background(), &maxP)
		if err1 != nil || err2 != nil {
			return false
		}
		if minSol.Status != Optimal || maxSol.Status != Optimal {
			return minSol.Status == maxSol.Status
		}
		return math.Abs(minSol.Objective+maxSol.Objective) < 1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// Property: adding a redundant constraint never changes the optimum.
func TestQuickRedundantConstraint(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(3)
		c := make([]float64, n)
		hi := make([]float64, n)
		row := make([]float64, n)
		for j := 0; j < n; j++ {
			c[j] = rng.Float64()
			hi[j] = 1
			row[j] = 0.2 + rng.Float64()
		}
		p := &Problem{
			Maximize: true,
			C:        c,
			A:        [][]float64{row},
			Op:       []ConstraintOp{LE},
			B:        []float64{float64(n) / 2},
			Hi:       hi,
		}
		s1, err := SolveCtx(context.Background(), p)
		if err != nil || s1.Status != Optimal {
			return false
		}
		// Redundant: sum x_j <= n is implied by bounds.
		ones := make([]float64, n)
		for j := range ones {
			ones[j] = 1
		}
		p2 := *p
		p2.A = append([][]float64{ones}, p.A...)
		p2.Op = append([]ConstraintOp{LE}, p.Op...)
		p2.B = append([]float64{float64(n)}, p.B...)
		s2, err := SolveCtx(context.Background(), &p2)
		if err != nil || s2.Status != Optimal {
			return false
		}
		return math.Abs(s1.Objective-s2.Objective) < 1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}
