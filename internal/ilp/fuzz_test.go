package ilp

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strconv"
	"testing"

	"repro/internal/lp"
)

// The fuzz targets decode their input as a small LP followed by a
// sequence of bound changes. Numbers are (mantissa int8, power of ten
// −3..3) pairs, so a handful of bytes reaches coefficients from 1e-3 to
// 1.27e5 and the seeds below can spell textbook instances exactly.
//
//	header   m−1, n−1, flags (bit 0: maximize)
//	n ×      c, lo-kind, lo, hi-kind, hi     kind%3: 0 finite, 1 infinite, 2 (hi only) = lo
//	m ×      op%3, rhs, n coefficients
//	then     j, lo-kind, lo, hi-kind, hi, solve   repeated: SetBounds, and re-optimize when solve is odd
const (
	fuzzMaxRows = 4
	fuzzMaxVars = 8
)

type boundChange struct {
	j      int
	lo, hi float64
	solve  bool
}

type fuzzReader struct{ data []byte }

func (r *fuzzReader) byte() byte {
	if len(r.data) == 0 {
		return 0
	}
	b := r.data[0]
	r.data = r.data[1:]
	return b
}

// fuzzExp maps an exponent byte (mod 16) to a power of ten: mostly 0, so
// that random bytes mostly decode to well-scaled instances.
var fuzzExp = [16]int{0, 0, 0, 0, 0, 0, 0, 0, 0, 0, -1, 1, -2, 2, -3, 3}

func (r *fuzzReader) num() float64 {
	mant, exp := int8(r.byte()), fuzzExp[r.byte()%16]
	return float64(mant) * math.Pow(10, float64(exp))
}

func (r *fuzzReader) bounds() (lo, hi float64) {
	lk, lo := r.byte()%3, r.num()
	hk, hi := r.byte()%3, r.num()
	if lk == 1 {
		lo = math.Inf(-1)
	}
	switch {
	case hk == 2 && lk != 1:
		hi = lo
	case hk == 1 && lk != 1:
		hi = math.Inf(1) // never free: a −∞ lower bound keeps its finite upper one
	}
	return lo, hi
}

// decodeLP reads a problem with a non-empty domain for every variable,
// and the bound changes that follow it (which may empty a domain).
func decodeLP(data []byte) (*lp.Problem, []boundChange) {
	r := &fuzzReader{data}
	m, n := 1+int(r.byte())%fuzzMaxRows, 1+int(r.byte())%fuzzMaxVars
	p := &lp.Problem{
		Maximize: r.byte()&1 == 1,
		C:        make([]float64, n),
		Lo:       make([]float64, n),
		Hi:       make([]float64, n),
	}
	for j := 0; j < n; j++ {
		p.C[j] = r.num()
		p.Lo[j], p.Hi[j] = r.bounds()
		if p.Lo[j] > p.Hi[j] {
			p.Lo[j], p.Hi[j] = p.Hi[j], p.Lo[j]
		}
	}
	for i := 0; i < m; i++ {
		p.Op = append(p.Op, lp.ConstraintOp(r.byte()%3))
		p.B = append(p.B, r.num())
		row := make([]float64, n)
		for j := range row {
			row[j] = r.num()
		}
		p.A = append(p.A, row)
	}
	var changes []boundChange
	for len(r.data) > 0 {
		c := boundChange{j: int(r.byte()) % n}
		c.lo, c.hi = r.bounds()
		c.solve = r.byte()&1 == 1
		changes = append(changes, c)
	}
	return p, changes
}

// enc is decodeLP's inverse for the values the seeds use: mantissa·10^exp
// numbers with |mantissa| ≤ 127.
type enc struct{ out []byte }

func (e *enc) num(v float64) {
	for exp := -3; exp <= 3; exp++ {
		mant := v / math.Pow(10, float64(exp))
		if r := math.Round(mant); math.Abs(mant-r) < 1e-9 && math.Abs(r) <= 127 {
			e.out = append(e.out, byte(int8(r)), byte(slices.Index(fuzzExp[:], exp)))
			return
		}
	}
	panic("fuzz seed: number not representable")
}

func (e *enc) bounds(lo, hi float64) {
	switch {
	case math.IsInf(lo, -1):
		e.out = append(e.out, 1, 0, 0)
	default:
		e.out = append(e.out, 0)
		e.num(lo)
	}
	switch {
	case math.IsInf(hi, 1):
		e.out = append(e.out, 1, 0, 0)
	default:
		e.out = append(e.out, 0)
		e.num(hi)
	}
}

func encodeLP(p *lp.Problem, changes []boundChange) []byte {
	e := &enc{}
	n := p.NumVars()
	flags := byte(0)
	if p.Maximize {
		flags = 1
	}
	e.out = append(e.out, byte(p.NumRows()-1), byte(n-1), flags)
	for j := 0; j < n; j++ {
		e.num(p.C[j])
		lo, hi := boundsAt(p, j)
		e.bounds(lo, hi)
	}
	for i := range p.B {
		e.out = append(e.out, byte(p.Op[i]))
		e.num(p.B[i])
		for _, a := range p.A[i] {
			e.num(a)
		}
	}
	for _, c := range changes {
		e.out = append(e.out, byte(c.j))
		e.bounds(c.lo, c.hi)
		if c.solve {
			e.out = append(e.out, 1)
		} else {
			e.out = append(e.out, 0)
		}
	}
	return e.out
}

// lpSeeds are the instance families the kernel swap has to survive, each
// with bound changes that force re-optimize after re-optimize.
func lpSeeds() [][]byte {
	inf := math.Inf(1)
	flip := func(js ...int) (cs []boundChange) {
		for _, j := range js {
			cs = append(cs,
				boundChange{j: j, lo: 1, hi: 1, solve: true},
				boundChange{j: j, lo: 0, hi: 0, solve: true},
				boundChange{j: j, lo: 0, hi: 1, solve: true})
		}
		return cs
	}
	return [][]byte{
		// Degenerate: three constraints through one vertex.
		encodeLP(&lp.Problem{Maximize: true, C: []float64{1, 1},
			A:  [][]float64{{1, 0}, {0, 1}, {1, 1}},
			Op: []lp.ConstraintOp{lp.LE, lp.LE, lp.LE}, B: []float64{1, 1, 2},
			Hi: []float64{4, 4}}, flip(0, 1)),
		// Beale's cycling example.
		encodeLP(&lp.Problem{Maximize: true, C: []float64{0.75, -150, 0.02, -6},
			A:  [][]float64{{0.25, -60, -0.04, 9}, {0.5, -90, -0.02, 3}, {0, 0, 1, 0}},
			Op: []lp.ConstraintOp{lp.LE, lp.LE, lp.LE}, B: []float64{0, 0, 1}},
			[]boundChange{{j: 2, lo: 0, hi: 0.5, solve: true}, {j: 0, lo: 0, hi: 10, solve: true}, {j: 2, lo: 0, hi: inf, solve: true}}),
		// Unbounded, then bounded by a bound change.
		encodeLP(&lp.Problem{Maximize: true, C: []float64{1, 1},
			A: [][]float64{{1, -1}}, Op: []lp.ConstraintOp{lp.LE}, B: []float64{1}},
			[]boundChange{{j: 1, lo: 0, hi: 3, solve: true}, {j: 1, lo: 0, hi: inf, solve: true}}),
		// Infeasible rows, and a domain emptied and restored.
		encodeLP(&lp.Problem{Maximize: true, C: []float64{1, 2},
			A: [][]float64{{1, 1}, {1, 1}}, Op: []lp.ConstraintOp{lp.LE, lp.GE}, B: []float64{1, 3},
			Hi: []float64{5, 5}},
			[]boundChange{{j: 0, lo: 2, hi: 1, solve: true}, {j: 0, lo: 0, hi: 5, solve: true}}),
		// Fixed variables.
		encodeLP(&lp.Problem{Maximize: true, C: []float64{3, 2, 1},
			A: [][]float64{{1, 1, 1}}, Op: []lp.ConstraintOp{lp.LE}, B: []float64{4},
			Lo: []float64{2, 0, 1}, Hi: []float64{2, 5, 1}}, flip(1)),
		// Negative lower bounds, one variable with no lower bound.
		encodeLP(&lp.Problem{C: []float64{1, 1, -1},
			A: [][]float64{{1, -1, 1}, {1, 1, 0}}, Op: []lp.ConstraintOp{lp.GE, lp.LE}, B: []float64{-2, 3},
			Lo: []float64{-5, -3, math.Inf(-1)}, Hi: []float64{5, inf, 2}},
			[]boundChange{{j: 0, lo: -1, hi: 1, solve: true}, {j: 2, lo: -4, hi: 0, solve: true}, {j: 1, lo: -3, hi: inf, solve: true}}),
		// Package-shaped: COUNT(*) = k plus a two-row range (BETWEEN), with
		// the branch-and-bound moves of fixing, freeing and jumping.
		encodeLP(&lp.Problem{Maximize: true, C: []float64{9, 7, 6, 5, 3, 2},
			A:  [][]float64{{1, 1, 1, 1, 1, 1}, {4, 3, 5, 2, 1, 6}, {4, 3, 5, 2, 1, 6}},
			Op: []lp.ConstraintOp{lp.EQ, lp.GE, lp.LE}, B: []float64{3, 7, 8},
			Hi: []float64{1, 1, 1, 1, 1, 1}}, flip(0, 2, 1, 5)),
		// Badly scaled: coefficients from 1e-3 to 1e5 in one row, a tiny
		// objective next to a large one.
		encodeLP(&lp.Problem{Maximize: true, C: []float64{0.001, 100000, 0.05},
			A:  [][]float64{{0.001, 1000, 1}, {120000, 0.002, 5}},
			Op: []lp.ConstraintOp{lp.LE, lp.LE}, B: []float64{1000, 90000},
			Hi: []float64{100000, 0.5, 1000}}, flip(1, 2)),
	}
}

// rowSlack measures how far x is outside the rows and bounds of p: worst
// is the largest violation relative to the row's (or bound's) own
// magnitude, and within reports whether every row is inside what a
// solver with bound tolerance 1e-7 may return — a basic variable up to
// 1e-7 outside its bound, clamped on output, moves row i by up to
// 1e-7·Σ|a_ij|.
func rowSlack(p *lp.Problem, x []float64) (worst float64, within bool) {
	within = true
	for j := range x {
		lo, hi := boundsAt(p, j)
		if v := math.Max(lo-x[j], x[j]-hi); v > 0 {
			worst = math.Max(worst, v/(1+math.Abs(x[j])))
			within = within && v <= 1e-6
		}
	}
	for i, row := range p.A {
		lhs, scale, amp := 0.0, 1+math.Abs(p.B[i]), 0.0
		for j, a := range row {
			lhs += a * x[j]
			scale += math.Abs(a * x[j])
			amp += math.Abs(a)
		}
		v := 0.0
		if p.Op[i] != lp.GE {
			v = math.Max(v, lhs-p.B[i])
		}
		if p.Op[i] != lp.LE {
			v = math.Max(v, p.B[i]-lhs)
		}
		worst = math.Max(worst, v/scale)
		within = within && v <= 1e-6*scale+1e-7*amp
	}
	return worst, within
}

// strictlyFeasible: x satisfies p to rounding, without leaning on any
// solver tolerance. Such a point is a witness both kernels must respect.
func strictlyFeasible(p *lp.Problem, x []float64) bool {
	worst, _ := rowSlack(p, x)
	return worst <= 1e-9
}

// wellScaled is the spread of magnitudes (largest ÷ smallest nonzero over
// coefficients, costs, right-hand sides and finite bounds) up to which
// two simplex codes with the same absolute tolerances (1e-7 feasibility,
// 1e-9 pivot and optimality) must agree. An entry of B⁻¹A is a product of
// up to m−1 coefficient ratios, so past a spread of 1e3 it can be a true
// nonzero below the pivot tolerance, and a ray or a blocking row is then
// seen by one pivot order and not by another: fuzzing found such honest
// disagreements at spreads of 5e5 and up.
const wellScaled = 1e3

func spread(p *lp.Problem) float64 {
	lo, hi := math.Inf(1), 0.0
	see := func(v float64) {
		if v = math.Abs(v); v != 0 && !math.IsInf(v, 0) {
			lo, hi = math.Min(lo, v), math.Max(hi, v)
		}
	}
	for j := range p.C {
		see(p.C[j])
		see(p.Lo[j])
		see(p.Hi[j])
	}
	for i, row := range p.A {
		see(p.B[i])
		for _, a := range row {
			see(a)
		}
	}
	if hi == 0 {
		return 1
	}
	return hi / lo
}

// checkLP holds one kernel answer to the oracle's on the same problem.
// Always: the kernel's x is feasible to the solver's tolerance and its DJ
// obeys the sign contract dj_test.go states. Against the oracle: same
// status, and an objective within 1e-7 relative of the oracle's whenever
// that is attained at a strictly feasible point (a better objective, or
// a status that differs, at a point feasible only to tolerance is a
// legitimate answer under absolute tolerances, not a disagreement). On an
// instance that is not wellScaled a disagreement is tolerated unless
// strict is set, which the fixed seeds are held to.
func checkLP(t *testing.T, strict bool, what string, p *lp.Problem, st lp.Status, x, dj []float64, obj float64, want *lp.Solution) {
	t.Helper()
	if st == lp.Optimal {
		if worst, ok := rowSlack(p, x); !ok {
			t.Fatalf("%s: x = %v is infeasible (relative violation %g)", what, x, worst)
		}
		for j := range x {
			lo, hi := boundsAt(p, j)
			tol := 1e-6 * (1 + math.Abs(p.C[j]))
			if hi-lo <= 1e-9 {
				continue // fixed: either sign is allowed
			}
			if x[j] < hi-1e-6 && dj[j] > tol {
				t.Fatalf("%s: x[%d] = %g below its upper bound %g has DJ %g > 0", what, j, x[j], hi, dj[j])
			}
			if x[j] > lo+1e-6 && dj[j] < -tol {
				t.Fatalf("%s: x[%d] = %g above its lower bound %g has DJ %g < 0", what, j, x[j], lo, dj[j])
			}
		}
	}
	if want.Status == lp.IterLimit {
		return // the oracle gave up: nothing to hold the kernel to
	}
	witness := want.Status == lp.Optimal && strictlyFeasible(p, want.X)
	bad := ""
	switch {
	case st == lp.Optimal && want.Status == lp.Optimal:
		worse := want.Objective - obj
		if !p.Maximize {
			worse = -worse
		}
		if worse > 1e-7*math.Max(1, math.Abs(want.Objective)) && witness {
			bad = fmt.Sprintf("objective %.12g, oracle %.12g at a strictly feasible point", obj, want.Objective)
		}
	case st == want.Status:
	case st == lp.Optimal && want.Status == lp.Infeasible && !strictlyFeasible(p, x):
		// Feasible only to tolerance: the oracle may reject it.
	case st == lp.Infeasible && want.Status == lp.Optimal && !witness:
		// The oracle's point is feasible only to tolerance.
	default:
		bad = fmt.Sprintf("status %v, oracle %v", st, want.Status)
	}
	if bad == "" {
		return
	}
	if s := spread(p); !strict && s > wellScaled {
		t.Skipf("%s: %s — tolerated at spread %.3g", what, bad, s)
	}
	t.Fatalf("%s: %s", what, bad)
}

// diffLP is the differential body: the one-shot solve, and every
// re-optimize of the bound-change sequence on one workspace, against the
// dense oracle solving the same bounds cold.
func diffLP(t *testing.T, data []byte, strict bool) {
	p, changes := decodeLP(data)
	ctx := context.Background()
	want, _, err := denseSolve(ctx, p, 0)
	if err != nil {
		t.Fatalf("oracle: %v", err)
	}
	got, err := lp.SolveCtx(ctx, p)
	if err != nil {
		t.Fatalf("SolveCtx: %v", err)
	}
	checkLP(t, strict, "cold", p, got.Status, got.X, got.DJ, got.Objective, want)

	w, err := lp.NewWorkspace(p)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Solve(ctx); err != nil {
		t.Fatal(err)
	}
	// cur tracks the workspace's bounds for the oracle.
	cur := *p
	cur.Lo, cur.Hi = slices.Clone(p.Lo), slices.Clone(p.Hi)
	for k, c := range changes {
		if err := w.SetBounds(c.j, c.lo, c.hi); err != nil {
			t.Fatalf("SetBounds(%d, %g, %g): %v", c.j, c.lo, c.hi, err)
		}
		cur.Lo[c.j], cur.Hi[c.j] = c.lo, c.hi
		if !c.solve {
			continue
		}
		st, err := w.Reoptimize(ctx)
		if err != nil {
			t.Fatal(err)
		}
		want := &lp.Solution{Status: lp.Infeasible}
		if !emptyDomain(&cur) {
			if want, _, err = denseSolve(ctx, &cur, 0); err != nil {
				t.Fatalf("oracle: %v", err)
			}
		}
		checkLP(t, strict, "re-optimize after change "+strconv.Itoa(k), &cur, st, w.X(), w.DJ(), w.Objective(), want)
	}
}

// FuzzLP is the differential gate on the kernel swap (ROADMAP 4b).
func FuzzLP(f *testing.F) {
	for _, s := range lpSeeds() {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, data []byte) { diffLP(t, data, false) })
}

// TestLPSeedsAgreeWithOracle holds every seed — the badly scaled one
// included — to the oracle with no tolerance for disagreement.
func TestLPSeedsAgreeWithOracle(t *testing.T) {
	for i, s := range lpSeeds() {
		t.Run(strconv.Itoa(i), func(t *testing.T) { diffLP(t, s, true) })
	}
}

func emptyDomain(p *lp.Problem) bool {
	for j := range p.Lo {
		if p.Lo[j] > p.Hi[j] {
			return true
		}
	}
	return false
}

// FuzzILP holds branch and bound over the warm workspace to exhaustive
// enumeration on small all-integer problems decoded from the same
// format, with bounds clipped to a box the enumerator can walk. Each
// instance is solved twice: as SolveCtx does, which at n ≤ 8 searches
// every variable, and from a working set of one variable, which puts the
// rounds — doubling, certification, the incumbent carried over as a
// cutoff — under the enumerator, and at n > 2 sifts the root one
// variable a round (the committed sift-* seeds price out of phase 1, take
// three rounds, and hold a negative lower bound out). The rows are taken
// as decoded: the solver takes an LP value within 1e-6 of an integer as
// that integer only if the rounded point still satisfies every row. Every
// incumbent must satisfy the rows within the LP kernel's tolerances; a
// disagreement with the enumerator is tolerated only on an instance that
// is not wellScaled.
func FuzzILP(f *testing.F) {
	for _, s := range lpSeeds() {
		f.Add(s)
	}
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 8; i++ {
		b := make([]byte, 64)
		rng.Read(b)
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		q, _ := decodeLP(data)
		for j := range q.C {
			// A box of at most 4 integer points per variable, anchored at
			// whichever bound is finite.
			lo, hi := q.Lo[j], q.Hi[j]
			if math.IsInf(lo, -1) {
				lo = hi - 3
			}
			lo = math.Max(math.Ceil(lo), -100)
			hi = math.Min(math.Floor(math.Min(hi, 100)), lo+3)
			if lo > hi {
				hi = lo
			}
			q.Lo[j], q.Hi[j] = lo, hi
		}
		p := &Problem{LP: *q}
		want, bad := bruteForce(p), ""
		for _, initial := range []int{workingSet, 1} {
			res, err := solve(context.Background(), p, Options{}, initial, workspace)
			if err != nil {
				t.Fatalf("working set %d: %v", initial, err)
			}
			if res.HasIncumbent {
				x := res.Dense(p.LP.NumVars())
				if worst, ok := rowSlack(&p.LP, x); !ok {
					t.Fatalf("working set %d: incumbent %v is infeasible (relative violation %g)", initial, x, worst)
				}
			}
			switch {
			case bad != "":
			case math.IsNaN(want):
				if res.Status != Infeasible {
					bad = fmt.Sprintf("working set %d: status %v (objective %g), enumeration finds no feasible point", initial, res.Status, res.Objective)
				}
			case res.Status != Optimal:
				bad = fmt.Sprintf("working set %d: status %v, enumeration finds %g", initial, res.Status, want)
			case math.Abs(res.Objective-want) > 1e-6*math.Max(1, math.Abs(want)):
				bad = fmt.Sprintf("working set %d: objective %.10g, enumeration finds %.10g", initial, res.Objective, want)
			}
		}
		if bad == "" {
			return
		}
		// The LP kernel's tolerances are absolute, as in FuzzLP: a basic
		// variable within 1e-7 outside its bound counts as on it, and a row
		// coefficient of 1e5 turns that into a violation of 1e-2 the
		// enumerator does not forgive.
		if s := spread(&p.LP); s > wellScaled {
			t.Skipf("%s — tolerated at spread %.3g", bad, s)
		}
		t.Fatal(bad)
	})
}
