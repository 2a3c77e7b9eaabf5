package ilp

// The dense two-phase primal simplex that internal/lp shipped before the
// revised workspace replaced it, kept verbatim as the differential
// oracle: FuzzLP holds the new kernel to it, and
// TestTreeIndependentOfPivotPath drives a whole branch-and-bound tree
// with it, cold at every node. It lives in this package's test binary
// because that is the one binary that can see both lp's exported API and
// the unexported relaxation seam of solve.

import (
	"context"
	"fmt"
	"math"

	"repro/internal/lp"
)

const (
	feasTol = 1e-7
	pivTol  = 1e-9
)

// denseCanceled is the internal status of a context-denseCanceled run.
const denseCanceled lp.Status = -1

type varStatus uint8

const (
	atLower varStatus = iota
	atUpper
	basic
)

// tableau is the dense working state of the simplex: T = B⁻¹·[A | S | D]
// maintained explicitly, plus the reduced-cost row.
type tableau struct {
	m, nTotal int
	t         [][]float64 // m × nTotal
	beta      []float64   // values of basic variables
	basis     []int       // column index basic in each row
	status    []varStatus
	lo, hi    []float64
	d         []float64 // reduced costs c_j − c_Bᵀ T_j
	c         []float64 // current-phase objective (maximize)
	cb        []float64 // scratch: c over the basis (recomputeReducedCosts)
	iter      int
	maxIter   int
	done      <-chan struct{} // cancellation signal, checked periodically
}

// value returns the current value of column j.
func (tb *tableau) value(j int) float64 {
	switch tb.status[j] {
	case atUpper:
		return tb.hi[j]
	case atLower:
		return tb.lo[j]
	default:
		for i, bj := range tb.basis {
			if bj == j {
				return tb.beta[i]
			}
		}
		return 0
	}
}

// recomputeReducedCosts sets d_j = c_j − c_Bᵀ T_j for all columns.
func (tb *tableau) recomputeReducedCosts() {
	cb := tb.cb
	for i, bj := range tb.basis {
		cb[i] = tb.c[bj]
	}
	for j := 0; j < tb.nTotal; j++ {
		s := tb.c[j]
		for i := 0; i < tb.m; i++ {
			if cb[i] != 0 {
				s -= cb[i] * tb.t[i][j]
			}
		}
		tb.d[j] = s
	}
	for _, bj := range tb.basis {
		tb.d[bj] = 0
	}
}

// chooseEntering picks the entering column, or -1 at optimality. When
// bland is set it takes the lowest-index eligible column (anti-cycling);
// otherwise the most violating reduced cost (Dantzig).
func (tb *tableau) chooseEntering(bland bool) int {
	best, bestScore := -1, optTol
	for j := 0; j < tb.nTotal; j++ {
		if tb.status[j] == basic || tb.hi[j]-tb.lo[j] <= pivTol {
			continue
		}
		var score float64
		if tb.status[j] == atLower {
			score = tb.d[j]
		} else {
			score = -tb.d[j]
		}
		if score > optTol {
			if bland {
				return j
			}
			if score > bestScore {
				best, bestScore = j, score
			}
		}
	}
	return best
}

// pivot performs the basis change with entering column q and leaving row
// r, updating the tableau matrix and reduced-cost row. beta is not touched
// here: it stores actual basic-variable values (not B⁻¹b), which the
// caller has already advanced and will overwrite for row r.
func (tb *tableau) pivot(r, q int) {
	piv := tb.t[r][q]
	row := tb.t[r]
	inv := 1 / piv
	for j := range row {
		row[j] *= inv
	}
	for i := 0; i < tb.m; i++ {
		if i == r {
			continue
		}
		f := tb.t[i][q]
		if f == 0 {
			continue
		}
		ti := tb.t[i]
		for j := range ti {
			ti[j] -= f * row[j]
		}
	}
	if f := tb.d[q]; f != 0 {
		for j := range tb.d {
			tb.d[j] -= f * row[j]
		}
	}
	tb.basis[r] = q
	tb.status[q] = basic
	tb.d[q] = 0
}

// step runs one simplex iteration. It returns:
// done=true when optimal, unbounded=true when the LP is unbounded.
func (tb *tableau) step(bland bool) (done, unbounded bool) {
	q := tb.chooseEntering(bland)
	if q < 0 {
		return true, false
	}
	// Direction: +1 when increasing from the lower bound, −1 when
	// decreasing from the upper bound.
	sigma := 1.0
	if tb.status[q] == atUpper {
		sigma = -1
	}
	deltaMax := tb.hi[q] - tb.lo[q] // may be +Inf
	delta := deltaMax
	leaveRow := -1
	leaveToUpper := false
	for i := 0; i < tb.m; i++ {
		y := tb.t[i][q] * sigma
		bj := tb.basis[i]
		if y > pivTol {
			// Basic variable decreases toward its lower bound.
			if lim := (tb.beta[i] - tb.lo[bj]) / y; lim < delta-pivTol ||
				(lim < delta+pivTol && leaveRow >= 0 && math.Abs(tb.t[i][q]) > math.Abs(tb.t[leaveRow][q])) {
				if lim < 0 {
					lim = 0
				}
				delta, leaveRow, leaveToUpper = lim, i, false
			}
		} else if y < -pivTol {
			// Basic variable increases toward its upper bound.
			if math.IsInf(tb.hi[bj], 1) {
				continue
			}
			if lim := (tb.hi[bj] - tb.beta[i]) / -y; lim < delta-pivTol ||
				(lim < delta+pivTol && leaveRow >= 0 && math.Abs(tb.t[i][q]) > math.Abs(tb.t[leaveRow][q])) {
				if lim < 0 {
					lim = 0
				}
				delta, leaveRow, leaveToUpper = lim, i, true
			}
		}
	}
	if math.IsInf(delta, 1) {
		return false, true
	}
	// Update basic values for the movement of q by sigma·delta.
	if delta != 0 {
		for i := 0; i < tb.m; i++ {
			tb.beta[i] -= sigma * delta * tb.t[i][q]
		}
	}
	if leaveRow < 0 {
		// Bound flip: q moves to its opposite bound, basis unchanged.
		if tb.status[q] == atLower {
			tb.status[q] = atUpper
		} else {
			tb.status[q] = atLower
		}
		return false, false
	}
	// q enters the basis at value bound + sigma·delta.
	enterVal := tb.lo[q]
	if tb.status[q] == atUpper {
		enterVal = tb.hi[q]
	}
	enterVal += sigma * delta
	leaving := tb.basis[leaveRow]
	tb.pivot(leaveRow, q)
	tb.beta[leaveRow] = enterVal
	if leaveToUpper {
		tb.status[leaving] = atUpper
	} else {
		tb.status[leaving] = atLower
	}
	return false, false
}

// run iterates to optimality, switching to Bland's rule after a stall.
func (tb *tableau) run() lp.Status {
	stall := 0
	lastObj := math.Inf(-1)
	for tb.iter = 0; tb.iter < tb.maxIter; tb.iter++ {
		if tb.done != nil && tb.iter&63 == 0 {
			select {
			case <-tb.done:
				return denseCanceled
			default:
			}
		}
		bland := stall > 2*(tb.m+8)
		done, unbounded := tb.step(bland)
		if done {
			return lp.Optimal
		}
		if unbounded {
			return lp.Unbounded
		}
		obj := tb.objective()
		if obj > lastObj+1e-12 {
			stall = 0
			lastObj = obj
		} else {
			stall++
		}
	}
	return lp.IterLimit
}

func (tb *tableau) objective() float64 {
	z := 0.0
	for j := 0; j < tb.nTotal; j++ {
		if tb.c[j] == 0 {
			continue
		}
		z += tb.c[j] * tb.value(j)
	}
	return z
}

// denseSolve solves the linear program, aborting early (with the context's
// error) when ctx is denseCanceled or its deadline passes. Cancellation is
// polled every 64 simplex iterations, so an abandoned solve stops within
// microseconds rather than running its full iteration budget. Besides the
// solution it returns the duals y = c_Bᵀ B⁻¹ of the phase it ended in: the
// real objective's at an optimum, phase 1's when that proves the rows
// infeasible.
func denseSolve(ctx context.Context, p *lp.Problem, maxIter int) (*lp.Solution, []float64, error) {
	if err := p.Validate(); err != nil {
		return nil, nil, fmt.Errorf("%w: %v", lp.ErrBadProblem, err)
	}
	n := p.NumVars()
	m := p.NumRows()

	// Count slacks: one per inequality row.
	nSlack := 0
	for _, op := range p.Op {
		if op != lp.EQ {
			nSlack++
		}
	}
	nTotal := n + nSlack + m // structural + slacks + artificials

	tb := &tableau{
		m:       m,
		nTotal:  nTotal,
		t:       make([][]float64, m),
		beta:    make([]float64, m),
		basis:   make([]int, m),
		status:  make([]varStatus, nTotal),
		lo:      make([]float64, nTotal),
		hi:      make([]float64, nTotal),
		d:       make([]float64, nTotal),
		c:       make([]float64, nTotal),
		cb:      make([]float64, m),
		maxIter: maxIter,
	}
	if maxIter <= 0 {
		tb.maxIter = 200*(m+n) + 5000
	}
	if ctx != nil {
		tb.done = ctx.Done()
	}

	// Structural bounds; nonbasic start at a finite bound.
	for j := 0; j < n; j++ {
		tb.lo[j], tb.hi[j] = boundsAt(p, j)
		if math.IsInf(tb.lo[j], -1) {
			tb.status[j] = atUpper
		} else {
			tb.status[j] = atLower
		}
	}
	// Slack bounds: s ≥ 0 with coefficient +1 for ≤ rows, −1 for ≥ rows.
	si := n
	slackOf := make([]int, m)
	for i, op := range p.Op {
		if op == lp.EQ {
			slackOf[i] = -1
			continue
		}
		slackOf[i] = si
		tb.lo[si], tb.hi[si] = 0, math.Inf(1)
		tb.status[si] = atLower
		si++
	}
	// Artificial bounds (fixed to 0 after phase 1).
	for k := 0; k < m; k++ {
		j := n + nSlack + k
		tb.lo[j], tb.hi[j] = 0, math.Inf(1)
	}

	// Residual b' = b − A·x_nonbasic(bounds). Structural nonbasic values:
	startVal := make([]float64, n)
	for j := 0; j < n; j++ {
		if tb.status[j] == atUpper {
			startVal[j] = tb.hi[j]
		} else {
			startVal[j] = tb.lo[j]
		}
	}
	signs := make([]float64, m)
	for i := 0; i < m; i++ {
		tb.t[i] = make([]float64, nTotal)
		resid := p.B[i]
		for j := 0; j < n; j++ {
			tb.t[i][j] = p.A[i][j]
			resid -= p.A[i][j] * startVal[j]
		}
		if s := slackOf[i]; s >= 0 {
			if p.Op[i] == lp.LE {
				tb.t[i][s] = 1
			} else {
				tb.t[i][s] = -1
			}
			// Slack starts nonbasic at 0, so no residual contribution.
		}
		sign := 1.0
		if resid < 0 {
			sign = -1
		}
		art := n + nSlack + i
		signs[i] = sign
		tb.t[i][art] = sign
		tb.basis[i] = art
		tb.status[art] = basic
		tb.beta[i] = resid * sign // = |resid| ≥ 0
		// Row is stored as B⁻¹·row with B the ±1 diagonal of artificials:
		if sign < 0 {
			for j := range tb.t[i] {
				tb.t[i][j] = -tb.t[i][j]
			}
			tb.beta[i] = -resid
		}
	}

	// duals reads y off the tableau: the artificial of row i is the column
	// signs[i]·eᵢ, so B⁻¹eᵢ = signs[i]·T[:,art] and yᵢ = signs[i]·(c_art − d_art).
	duals := func() []float64 {
		y := make([]float64, m)
		for i := range y {
			art := n + nSlack + i
			y[i] = signs[i] * (tb.c[art] - tb.d[art])
		}
		return y
	}

	// Phase 1: maximize −Σ artificials.
	for k := 0; k < m; k++ {
		tb.c[n+nSlack+k] = -1
	}
	tb.recomputeReducedCosts()
	st := tb.run()
	iters := tb.iter
	if st == denseCanceled {
		return nil, nil, ctx.Err()
	}
	if st == lp.IterLimit {
		return &lp.Solution{Status: lp.IterLimit, Iterations: iters}, nil, nil
	}
	if tb.objective() < -feasTol {
		return &lp.Solution{Status: lp.Infeasible, Iterations: iters}, duals(), nil
	}
	// Fix artificials at 0 so they cannot re-enter with positive value.
	for k := 0; k < m; k++ {
		j := n + nSlack + k
		tb.hi[j] = 0
		if tb.status[j] != basic {
			tb.status[j] = atLower
		}
	}

	// Phase 2: the real objective (negate C for minimization).
	for j := range tb.c {
		tb.c[j] = 0
	}
	for j := 0; j < n; j++ {
		if p.Maximize {
			tb.c[j] = p.C[j]
		} else {
			tb.c[j] = -p.C[j]
		}
	}
	tb.recomputeReducedCosts()
	st = tb.run()
	iters += tb.iter
	switch st {
	case denseCanceled:
		return nil, nil, ctx.Err()
	case lp.Unbounded:
		return &lp.Solution{Status: lp.Unbounded, Iterations: iters}, nil, nil
	case lp.IterLimit:
		return &lp.Solution{Status: lp.IterLimit, Iterations: iters}, nil, nil
	}

	x := make([]float64, n)
	for j := 0; j < n; j++ {
		x[j] = tb.value(j)
		// Clamp tiny bound violations from floating-point drift.
		if lo, hi := boundsAt(p, j); x[j] < lo {
			x[j] = lo
		} else if x[j] > hi {
			x[j] = hi
		}
	}
	obj := 0.0
	for j := 0; j < n; j++ {
		obj += p.C[j] * x[j]
	}
	dj := make([]float64, n)
	copy(dj, tb.d[:n])
	return &lp.Solution{Status: lp.Optimal, X: x, Objective: obj, Iterations: iters, DJ: dj}, duals(), nil
}

func boundsAt(p *lp.Problem, j int) (lo, hi float64) {
	lo, hi = 0, math.Inf(1)
	if p.Lo != nil {
		lo = p.Lo[j]
	}
	if p.Hi != nil {
		hi = p.Hi[j]
	}
	return lo, hi
}

// denseRelaxation drives branch and bound with the dense oracle: it
// keeps the node's bounds and solves cold on every Reoptimize.
type denseRelaxation struct {
	p       lp.Problem // shallow copy with private Lo/Hi
	sol     *lp.Solution
	y       []float64 // the last solve's duals, phase 1's after an infeasible one
	stats   lp.Stats
	maxIter int
	basis   []int
}

func newDenseRelaxation(q *lp.Problem) *denseRelaxation {
	n := q.NumVars()
	r := &denseRelaxation{p: *q}
	r.p.Lo, r.p.Hi = make([]float64, n), make([]float64, n)
	for j := 0; j < n; j++ {
		r.p.Lo[j], r.p.Hi[j] = boundsAt(q, j)
	}
	return r
}

func (r *denseRelaxation) SetBounds(j int, lo, hi float64) error {
	r.p.Lo[j], r.p.Hi[j] = lo, hi
	return nil
}

// Basis stands in for the basis header with every column strictly inside
// its bounds: the tableau's basis is not kept, and a column resting on a
// bound is never one branch and bound looks for.
func (r *denseRelaxation) Basis() []int {
	r.basis = r.basis[:0]
	for j, v := range r.sol.X {
		if v > r.p.Lo[j] && v < r.p.Hi[j] {
			r.basis = append(r.basis, j)
		}
	}
	return r.basis
}

func (r *denseRelaxation) Reoptimize(ctx context.Context) (lp.Status, error) {
	r.stats.ColdSolves++
	for j := range r.p.Lo {
		if r.p.Lo[j] > r.p.Hi[j] {
			return lp.Infeasible, nil
		}
	}
	sol, y, err := denseSolve(ctx, &r.p, r.maxIter)
	if err != nil {
		return 0, err
	}
	r.sol, r.y = sol, y
	r.stats.PrimalIterations += sol.Iterations
	return sol.Status, nil
}

func (r *denseRelaxation) X() []float64       { return r.sol.X }
func (r *denseRelaxation) DJ() []float64      { return r.sol.DJ }
func (r *denseRelaxation) Duals() []float64   { return r.y }
func (r *denseRelaxation) Objective() float64 { return r.sol.Objective }
func (r *denseRelaxation) Stats() lp.Stats    { return r.stats }
