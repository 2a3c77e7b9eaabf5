// Package lp implements a dense two-phase primal simplex solver for linear
// programs with bounded variables:
//
//	maximize (or minimize)  cᵀx
//	subject to              Aᵢ·x (≤ | = | ≥) bᵢ   for each row i
//	                        loⱼ ≤ xⱼ ≤ hiⱼ        for each variable j
//
// It is the continuous-relaxation engine underneath the branch-and-bound
// ILP solver in internal/ilp, which together replace the proprietary ILP
// solver (CPLEX) used in the paper. Variable bounds are handled natively
// by the simplex (nonbasic variables rest at either bound), so the REPEAT
// bounds and per-group count caps of package queries do not add rows.
//
// Every variable must have at least one finite bound; free variables are
// not supported (package-query translations always produce xⱼ ≥ 0).
package lp

import (
	"context"
	"errors"
	"fmt"
	"math"
)

// ConstraintOp is the sense of one linear constraint row.
type ConstraintOp int

const (
	// LE is "≤".
	LE ConstraintOp = iota
	// GE is "≥".
	GE
	// EQ is "=".
	EQ
)

// String returns the mathematical spelling of the operator.
func (op ConstraintOp) String() string {
	switch op {
	case LE:
		return "<="
	case GE:
		return ">="
	case EQ:
		return "="
	default:
		return fmt.Sprintf("ConstraintOp(%d)", int(op))
	}
}

// Status reports the outcome of a solve.
type Status int

const (
	// Optimal means an optimal basic feasible solution was found.
	Optimal Status = iota
	// Infeasible means the constraint system has no solution.
	Infeasible
	// Unbounded means the objective is unbounded over the feasible region.
	Unbounded
	// IterLimit means the iteration budget was exhausted (numerical
	// trouble); treat as a solver failure.
	IterLimit
)

// canceled is the internal status for a context-canceled run; SolveCtx
// converts it to the context's error before returning.
const canceled Status = -1

// String names the status.
func (s Status) String() string {
	switch s {
	case Optimal:
		return "optimal"
	case Infeasible:
		return "infeasible"
	case Unbounded:
		return "unbounded"
	case IterLimit:
		return "iteration-limit"
	default:
		return fmt.Sprintf("Status(%d)", int(s))
	}
}

// Problem is a linear program. A and B must have the same number of rows;
// every row of A, and C, Lo, Hi must have length NumVars.
type Problem struct {
	Maximize bool
	C        []float64
	A        [][]float64
	Op       []ConstraintOp
	B        []float64
	Lo       []float64 // defaults to 0 when nil
	Hi       []float64 // defaults to +Inf when nil
}

// NumVars returns the number of structural variables.
func (p *Problem) NumVars() int { return len(p.C) }

// NumRows returns the number of constraint rows.
func (p *Problem) NumRows() int { return len(p.B) }

// Validate checks dimensions and bounds.
func (p *Problem) Validate() error {
	n := len(p.C)
	if len(p.A) != len(p.B) || len(p.Op) != len(p.B) {
		return fmt.Errorf("lp: %d rows in A, %d in B, %d ops", len(p.A), len(p.B), len(p.Op))
	}
	for i, row := range p.A {
		if len(row) != n {
			return fmt.Errorf("lp: row %d has %d coefficients, want %d", i, len(row), n)
		}
	}
	if p.Lo != nil && len(p.Lo) != n {
		return fmt.Errorf("lp: Lo has length %d, want %d", len(p.Lo), n)
	}
	if p.Hi != nil && len(p.Hi) != n {
		return fmt.Errorf("lp: Hi has length %d, want %d", len(p.Hi), n)
	}
	for j := 0; j < n; j++ {
		lo, hi := p.boundsAt(j)
		if lo > hi {
			return fmt.Errorf("lp: variable %d has empty domain [%g, %g]", j, lo, hi)
		}
		if math.IsInf(lo, -1) && math.IsInf(hi, 1) {
			return fmt.Errorf("lp: variable %d is free; free variables are unsupported", j)
		}
	}
	return nil
}

func (p *Problem) boundsAt(j int) (lo, hi float64) {
	lo, hi = 0, math.Inf(1)
	if p.Lo != nil {
		lo = p.Lo[j]
	}
	if p.Hi != nil {
		hi = p.Hi[j]
	}
	return lo, hi
}

// Solution is the result of a solve.
type Solution struct {
	Status     Status
	X          []float64 // structural variable values (valid when Optimal)
	Objective  float64   // cᵀx in the problem's own sense (valid when Optimal)
	Iterations int
	// DJ holds the reduced costs of the structural variables at the
	// optimum, in the internal maximization sense (minimization
	// problems are solved as max −C). At optimality, a variable
	// nonbasic at its lower bound has DJ ≤ 0 and raising it by Δ can
	// improve the (maximization) objective by at most DJ·Δ; a variable
	// at its upper bound has DJ ≥ 0. Branch-and-bound uses these for
	// reduced-cost variable fixing.
	DJ []float64
}

// ErrBadProblem wraps validation failures.
var ErrBadProblem = errors.New("lp: invalid problem")

const (
	feasTol = 1e-7
	optTol  = 1e-9
	pivTol  = 1e-9
)

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
func (tb *tableau) run() Status {
	stall := 0
	lastObj := math.Inf(-1)
	for tb.iter = 0; tb.iter < tb.maxIter; tb.iter++ {
		if tb.done != nil && tb.iter&63 == 0 {
			select {
			case <-tb.done:
				return canceled
			default:
			}
		}
		bland := stall > 2*(tb.m+8)
		done, unbounded := tb.step(bland)
		if done {
			return Optimal
		}
		if unbounded {
			return Unbounded
		}
		obj := tb.objective()
		if obj > lastObj+1e-12 {
			stall = 0
			lastObj = obj
		} else {
			stall++
		}
	}
	return IterLimit
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

// SolveCtx solves the linear program, aborting early (with the context's
// error) when ctx is canceled or its deadline passes. Cancellation is
// polled every 64 simplex iterations, so an abandoned solve stops within
// microseconds rather than running its full iteration budget.
func SolveCtx(ctx context.Context, p *Problem) (*Solution, error) {
	if err := p.Validate(); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadProblem, err)
	}
	n := p.NumVars()
	m := p.NumRows()

	// Count slacks: one per inequality row.
	nSlack := 0
	for _, op := range p.Op {
		if op != EQ {
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
		maxIter: 200*(m+n) + 5000,
	}
	if ctx != nil {
		tb.done = ctx.Done()
	}

	// Structural bounds; nonbasic start at a finite bound.
	for j := 0; j < n; j++ {
		tb.lo[j], tb.hi[j] = p.boundsAt(j)
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
		if op == EQ {
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
	for i := 0; i < m; i++ {
		tb.t[i] = make([]float64, nTotal)
		resid := p.B[i]
		for j := 0; j < n; j++ {
			tb.t[i][j] = p.A[i][j]
			resid -= p.A[i][j] * startVal[j]
		}
		if s := slackOf[i]; s >= 0 {
			if p.Op[i] == LE {
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

	// Phase 1: maximize −Σ artificials.
	for k := 0; k < m; k++ {
		tb.c[n+nSlack+k] = -1
	}
	tb.recomputeReducedCosts()
	st := tb.run()
	iters := tb.iter
	if st == canceled {
		return nil, ctx.Err()
	}
	if st == IterLimit {
		return &Solution{Status: IterLimit, Iterations: iters}, nil
	}
	if tb.objective() < -feasTol {
		return &Solution{Status: Infeasible, Iterations: iters}, nil
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
	case canceled:
		return nil, ctx.Err()
	case Unbounded:
		return &Solution{Status: Unbounded, Iterations: iters}, nil
	case IterLimit:
		return &Solution{Status: IterLimit, Iterations: iters}, nil
	}

	x := make([]float64, n)
	for j := 0; j < n; j++ {
		x[j] = tb.value(j)
		// Clamp tiny bound violations from floating-point drift.
		if lo, hi := p.boundsAt(j); x[j] < lo {
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
	return &Solution{Status: Optimal, X: x, Objective: obj, Iterations: iters, DJ: dj}, nil
}
