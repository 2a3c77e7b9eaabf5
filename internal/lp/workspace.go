package lp

import (
	"context"
	"fmt"
	"math"
)

const (
	feasTol = 1e-7
	optTol  = 1e-9
	pivTol  = 1e-9

	// refactorEvery is how many rank-one updates the explicit basis
	// inverse takes before it is rebuilt from the basis columns. A
	// rebuild costs O(m³) plus one O(m·n) pass for the basic values —
	// about one pricing pass at package shapes (m ≤ 8) — so at 64 it is
	// under 2 % of the iterations (BenchmarkNodeThroughput: 16 costs ~6 %
	// more than 64, never rebuilding ~3 % less). The differential suites
	// (FuzzLP, the 1e-9 node-objective agreement with a cold oracle over
	// 1 000-node trees) pass at 16 and at 64 alike; 64 is the cheap end
	// of what they cover.
	refactorEvery = 64

	// washout is how far above their final magnitude the basic values may
	// have travelled since they were last computed from the bounds before
	// an optimum is recomputed rather than reported: every update rounds
	// at the magnitude of the day, so values that passed through 1e5× their
	// final size carry ~1e-11 relative error, the most that keeps node
	// objectives within 1e-9 of a cold solve. 0/1 package LPs never get
	// near it; FuzzLP found the case (a dual run through a basis with
	// values ~1e9 on the way to an optimum of ~1e-3).
	washout = 1e5
)

type varStatus uint8

const (
	atLower varStatus = iota
	atUpper
	fixed // nonbasic with hi − lo ≤ pivTol (empty domains included): rests at lo, never enters
	basic
)

// Stats counts the work a Workspace has done since it was built.
type Stats struct {
	// WarmSolves counts Reoptimize calls that started from a held basis;
	// ColdSolves counts solves from the slack basis: every Solve, and
	// every Reoptimize that had no usable basis or fell back after a
	// numerically failed dual run.
	WarmSolves, ColdSolves int
	// DualIterations and PrimalIterations count pivots and bound flips.
	DualIterations, PrimalIterations int
	// Refactorizations counts rebuilds of the basis inverse.
	Refactorizations int
}

// Workspace is the reusable state of the revised simplex for one
// Problem. It reads the Problem's rows in place (the caller must not
// modify A, B, Op or C while the workspace is in use) and owns a working
// copy of the bounds, which SetBounds changes between solves. Columns
// 0..n-1 are the structural variables; column n+i is the logical of row
// i, a unit column with Aᵢ·x + sᵢ = bᵢ and sᵢ ∈ [0,∞) for ≤, (−∞,0] for ≥
// and [0,0] for =. After NewWorkspace no method allocates.
type Workspace struct {
	p    *Problem
	n, m int

	sense  float64     // +1 to maximize p.C, −1 to minimize it: costs are sense·p.C
	lo, hi []float64   // working bounds of all n+m columns
	status []varStatus // n+m
	basis  []int       // column basic in each row
	binv   []float64   // m×m basis inverse, row-major
	beta   []float64   // values of the basic variables
	d      []float64   // reduced costs c_j − c_Bᵀ B⁻¹ A_j of all n+m columns
	alpha  []float64   // dual simplex: pivot row e_rᵀ B⁻¹ A over all n+m columns
	cand   []int32     // dual simplex: columns eligible to enter
	col    []float64   // entering column B⁻¹ A_q
	y      []float64   // c_Bᵀ B⁻¹
	cb     []float64   // costs of the basic variables for the current phase
	lu     []float64   // m×m scratch for refactor
	x      []float64   // structural values: the last optimum, else scratch

	obj      float64
	peak     float64 // largest |basic value| since beta was last rebuilt
	hasBasis bool    // the held basis is dual feasible for the current bounds
	empty    int     // structural variables whose working domain is empty
	updates  int     // inverse updates since the last refactor
	ticks    int     // iterations since the workspace was built (cancellation poll)
	maxIter  int
	stats    Stats
}

// NewWorkspace validates p and allocates everything its solves need.
func NewWorkspace(p *Problem) (*Workspace, error) {
	if err := p.Validate(); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadProblem, err)
	}
	n, m := p.NumVars(), p.NumRows()
	w := &Workspace{
		p: p, n: n, m: m,
		sense:   -1,
		lo:      make([]float64, n+m),
		hi:      make([]float64, n+m),
		status:  make([]varStatus, n+m),
		basis:   make([]int, m),
		binv:    make([]float64, m*m),
		beta:    make([]float64, m),
		d:       make([]float64, n+m),
		alpha:   make([]float64, n+m),
		cand:    make([]int32, 0, n+m),
		col:     make([]float64, m),
		y:       make([]float64, m),
		cb:      make([]float64, m),
		lu:      make([]float64, m*m),
		x:       make([]float64, n),
		maxIter: 200*(m+n) + 5000,
	}
	if p.Maximize {
		w.sense = 1
	}
	for j := 0; j < n; j++ {
		w.lo[j], w.hi[j] = p.Bounds(j)
	}
	for i, op := range p.Op {
		switch op {
		case LE:
			w.hi[n+i] = math.Inf(1)
		case GE:
			w.lo[n+i] = math.Inf(-1)
		}
	}
	return w, nil
}

// X returns the structural variable values after a solve that returned
// Optimal. The slice is the workspace's own: the next solve, whatever its
// outcome, overwrites it, and the caller may scribble on it until then.
func (w *Workspace) X() []float64 { return w.x }

// DJ returns the structural reduced costs after a solve that returned
// Optimal, under Solution.DJ's sign contract. The slice is the
// workspace's own and read-only: the dual simplex carries it forward.
func (w *Workspace) DJ() []float64 { return w.d[:w.n:w.n] }

// Duals returns y = c_Bᵀ B⁻¹ of the last Solve (Reoptimize does not keep
// it), read-only: DJ()ⱼ = ±Cⱼ − y·Aⱼ (+ to maximize) after an optimum, and
// after Infeasible y is the composite phase-1 duals, under which −y·Aⱼ > 0
// marks a column whose rise would cut the infeasibility.
func (w *Workspace) Duals() []float64 { return w.y }

// Objective returns cᵀx, in the problem's own sense, after a solve that
// returned Optimal.
func (w *Workspace) Objective() float64 { return w.obj }

// Basis returns the column basic in each row after a solve, n+i standing
// for the logical of row i; every other column rests on a bound. The
// slice is the workspace's own and read-only.
func (w *Workspace) Basis() []int { return w.basis }

// Stats returns the work counters.
func (w *Workspace) Stats() Stats { return w.stats }

// value returns the current value of nonbasic column j.
func (w *Workspace) value(j int) float64 {
	if w.status[j] == atUpper {
		return w.hi[j]
	}
	return w.lo[j]
}

// rest makes column j nonbasic at its upper or lower bound, or fixed when
// its domain leaves it no room to move.
func (w *Workspace) rest(j int, upper bool) {
	switch {
	case w.hi[j]-w.lo[j] <= pivTol:
		w.status[j] = fixed
	case upper:
		w.status[j] = atUpper
	default:
		w.status[j] = atLower
	}
}

// ftran sets col = B⁻¹ A_j.
func (w *Workspace) ftran(j int) {
	m := w.m
	if j >= w.n {
		k := j - w.n
		for i := 0; i < m; i++ {
			w.col[i] = w.binv[i*m+k]
		}
		return
	}
	for i := 0; i < m; i++ {
		s, row := 0.0, w.binv[i*m:(i+1)*m]
		for k, b := range row {
			s += b * w.p.A[k][j]
		}
		w.col[i] = s
	}
}

// SetBounds replaces the working bounds of structural variable j. At
// least one of lo, hi must be finite. An empty domain (lo > hi) is
// allowed and makes every solve Infeasible until it is widened again.
// When the workspace holds an optimal basis, a nonbasic j is moved to
// whichever of its new bounds keeps its reduced cost dual feasible, so
// the next Reoptimize starts the dual simplex from that basis.
func (w *Workspace) SetBounds(j int, lo, hi float64) error {
	if j < 0 || j >= w.n {
		return fmt.Errorf("%w: SetBounds: variable %d out of range [0, %d)", ErrBadProblem, j, w.n)
	}
	if math.IsNaN(lo) || math.IsNaN(hi) || (math.IsInf(lo, -1) && math.IsInf(hi, 1)) {
		return fmt.Errorf("%w: SetBounds: variable %d needs a finite bound, got [%g, %g]", ErrBadProblem, j, lo, hi)
	}
	if w.lo[j] == lo && w.hi[j] == hi {
		return nil
	}
	if w.lo[j] > w.hi[j] {
		w.empty--
	}
	if lo > hi {
		w.empty++
	}
	st := w.status[j]
	if !w.hasBasis || st == basic {
		// Nothing to keep consistent, or a basic variable: a bound it now
		// violates is what the dual simplex repairs.
		w.lo[j], w.hi[j] = lo, hi
		return nil
	}
	old := w.value(j)
	w.lo[j], w.hi[j] = lo, hi
	upper := st == atUpper
	switch {
	case math.IsInf(lo, -1):
		upper = true
	case math.IsInf(hi, 1):
		upper = false
	case w.d[j] > optTol:
		upper = true
	case w.d[j] < -optTol:
		upper = false
	}
	w.rest(j, upper)
	if st = w.status[j]; (st == atLower && w.d[j] > optTol) || (st == atUpper && w.d[j] < -optTol) {
		// Only a half-bounded variable can land here: no bound of it is
		// dual feasible, so the basis is of no use to the dual simplex.
		w.hasBasis = false
		return nil
	}
	if delta := w.value(j) - old; delta != 0 {
		w.ftran(j)
		for i := range w.beta {
			w.beta[i] -= w.col[i] * delta
		}
		w.notePeak()
	}
	return nil
}

// Solve optimizes from the slack basis with the bounded primal simplex,
// ignoring any basis the workspace holds. A canceled ctx returns its
// error; cancellation is polled every 64 simplex iterations.
func (w *Workspace) Solve(ctx context.Context) (Status, error) {
	w.stats.ColdSolves++
	w.hasBasis = false
	if w.empty > 0 {
		return Infeasible, nil
	}
	w.reset()
	return w.finish(ctx, w.primal(doneOf(ctx)))
}

// Reoptimize optimizes after SetBounds calls, starting the bounded dual
// simplex from the basis of the previous solve. It falls back to Solve
// when there is no such basis (no solve yet, the last one failed, or a
// half-bounded variable lost dual feasibility) and when the dual run
// fails numerically.
func (w *Workspace) Reoptimize(ctx context.Context) (Status, error) {
	if !w.hasBasis {
		return w.Solve(ctx)
	}
	if w.empty > 0 {
		return Infeasible, nil
	}
	w.stats.WarmSolves++
	st := w.dual(doneOf(ctx))
	if st == IterLimit {
		return w.Solve(ctx)
	}
	return w.finish(ctx, st)
}

func doneOf(ctx context.Context) <-chan struct{} {
	if ctx == nil {
		return nil
	}
	return ctx.Done()
}

// finish turns a simplex outcome into the caller's terms and, at an
// optimum, extracts x, the objective and the structural reduced costs.
func (w *Workspace) finish(ctx context.Context, st Status) (Status, error) {
	switch st {
	case canceled:
		w.hasBasis = false
		return st, ctx.Err()
	case Infeasible:
		// Dual simplex keeps dual feasibility up to the ray that proves
		// infeasibility, so its basis still serves the next node; the
		// primal's phase-1 basis does not.
		return st, nil
	case Optimal:
	default:
		w.hasBasis = false
		return st, nil
	}
	w.hasBasis = true
	for j := 0; j < w.n; j++ {
		w.x[j] = w.value(j)
	}
	for i, bj := range w.basis {
		w.d[bj] = 0
		if bj < w.n {
			// Clamp tiny bound violations from floating-point drift.
			w.x[bj] = math.Min(math.Max(w.beta[i], w.lo[bj]), w.hi[bj])
		}
	}
	obj := 0.0 // skipping the ±0 terms leaves the sum's bits as they are
	for j, xj := range w.x {
		if xj != 0 {
			obj += w.p.C[j] * xj
		}
	}
	w.obj = obj
	return Optimal, nil
}

// polled reports whether done has fired, looking on the workspace's
// first iteration and every 64th after it — across solves, so a run of
// short re-optimizations is covered too.
func (w *Workspace) polled(done <-chan struct{}) bool {
	w.ticks++
	if done == nil || w.ticks&63 != 1 {
		return false
	}
	select {
	case <-done:
		return true
	default:
		return false
	}
}

// reset installs the slack basis with every structural variable at a
// finite bound.
func (w *Workspace) reset() {
	n, m := w.n, w.m
	for j := 0; j < n; j++ {
		w.rest(j, math.IsInf(w.lo[j], -1))
		w.x[j] = w.value(j)
	}
	clear(w.binv)
	for i := 0; i < m; i++ {
		w.basis[i] = n + i
		w.status[n+i] = basic
		w.binv[i*m+i] = 1
		w.beta[i] = w.p.B[i] - dot(w.p.A[i], w.x)
	}
	w.updates = 0
	w.peak = 0
	w.notePeak()
}

// axpy adds a·x to y.
func axpy(y []float64, a float64, x []float64) {
	x = x[:len(y)]
	for k, v := range x {
		y[k] += a * v
	}
}

func dot(a, b []float64) float64 {
	s := 0.0
	b = b[:len(a)]
	for j, v := range a {
		s += v * b[j]
	}
	return s
}

// refactor rebuilds the basis inverse from the basis columns (Gauss–
// Jordan with partial pivoting) and the basic values from the bounds of
// the nonbasic columns. It reports false when the basis is singular.
func (w *Workspace) refactor() bool {
	n, m := w.n, w.m
	w.stats.Refactorizations++
	w.updates = 0
	clear(w.binv)
	for r, bj := range w.basis {
		w.binv[r*m+r] = 1
		for i := 0; i < m; i++ {
			switch {
			case bj < n:
				w.lu[i*m+r] = w.p.A[i][bj]
			case bj-n == i:
				w.lu[i*m+r] = 1
			default:
				w.lu[i*m+r] = 0
			}
		}
	}
	for k := 0; k < m; k++ {
		piv := k
		for i := k + 1; i < m; i++ {
			if math.Abs(w.lu[i*m+k]) > math.Abs(w.lu[piv*m+k]) {
				piv = i
			}
		}
		if math.Abs(w.lu[piv*m+k]) < 1e-11 {
			return false
		}
		if piv != k {
			for j := 0; j < m; j++ {
				w.lu[k*m+j], w.lu[piv*m+j] = w.lu[piv*m+j], w.lu[k*m+j]
				w.binv[k*m+j], w.binv[piv*m+j] = w.binv[piv*m+j], w.binv[k*m+j]
			}
		}
		inv := 1 / w.lu[k*m+k]
		for j := 0; j < m; j++ {
			w.lu[k*m+j] *= inv
			w.binv[k*m+j] *= inv
		}
		for i := 0; i < m; i++ {
			f := w.lu[i*m+k]
			if i == k || f == 0 {
				continue
			}
			for j := 0; j < m; j++ {
				w.lu[i*m+j] -= f * w.lu[k*m+j]
				w.binv[i*m+j] -= f * w.binv[k*m+j]
			}
		}
	}
	// x_B = B⁻¹(b − N x_N). A nonbasic logical always rests at its finite
	// bound, which is 0, so only structural columns contribute.
	for j := 0; j < n; j++ {
		if w.status[j] == basic {
			w.x[j] = 0
		} else {
			w.x[j] = w.value(j)
		}
	}
	for i := 0; i < m; i++ {
		w.col[i] = w.p.B[i] - dot(w.p.A[i], w.x)
	}
	for i := 0; i < m; i++ {
		w.beta[i] = dot(w.binv[i*m:(i+1)*m], w.col)
	}
	w.peak = 0
	w.notePeak()
	return true
}

// notePeak records the magnitude the basic values have reached.
func (w *Workspace) notePeak() {
	for _, b := range w.beta {
		w.peak = math.Max(w.peak, math.Abs(b))
	}
}

// washedOut reports whether the basic values have been far enough above
// their present magnitude to have lost the digits an optimum needs.
func (w *Workspace) washedOut() bool {
	now := 1.0
	for _, b := range w.beta {
		now = math.Max(now, math.Abs(b))
	}
	return w.peak > washout*now
}

// rebuild is refactor plus the reduced costs of the real objective: all
// the state the dual simplex carries from one iteration to the next.
func (w *Workspace) rebuild() bool {
	if !w.refactor() {
		return false
	}
	w.realCosts()
	w.price(false)
	return true
}

// price sets y = c_Bᵀ B⁻¹ from the basic costs in cb, then the reduced
// cost of every column: d_j = c_j − y·A_j, with c ≡ 0 off the basis in
// phase 1.
func (w *Workspace) price(phase1 bool) {
	n, m := w.n, w.m
	clear(w.y)
	for i, c := range w.cb {
		if c == 0 {
			continue
		}
		for k, b := range w.binv[i*m : (i+1)*m] {
			w.y[k] += c * b
		}
	}
	d := w.d[:n]
	if phase1 {
		clear(d)
	} else {
		for j, cj := range w.p.C {
			d[j] = w.sense * cj
		}
	}
	for i, yi := range w.y {
		w.d[n+i] = -yi
		if yi != 0 {
			axpy(d, -yi, w.p.A[i])
		}
	}
}

// basicCosts fills cb for the current phase and reports whether that is
// phase 1: a basic variable outside its bounds costs ±1 toward them (the
// composite phase-1 objective, −Σ infeasibilities); once none is, the
// basic variables carry their real costs.
func (w *Workspace) basicCosts() (phase1 bool) {
	for i, bj := range w.basis {
		switch {
		case w.beta[i] < w.lo[bj]-feasTol:
			w.cb[i], phase1 = 1, true
		case w.beta[i] > w.hi[bj]+feasTol:
			w.cb[i], phase1 = -1, true
		default:
			w.cb[i] = 0
		}
	}
	if !phase1 {
		w.realCosts()
	}
	return phase1
}

func (w *Workspace) realCosts() {
	for i, bj := range w.basis {
		if bj < w.n {
			w.cb[i] = w.sense * w.p.C[bj]
		} else {
			w.cb[i] = 0
		}
	}
}

// chooseEntering picks the entering column of a primal iteration, or -1
// when no nonbasic column improves. With bland set it takes the lowest
// eligible index (anti-cycling); otherwise the most violating reduced
// cost (Dantzig).
func (w *Workspace) chooseEntering(bland bool) int {
	best, bestScore := -1, optTol
	for j, st := range w.status {
		if st >= fixed {
			continue
		}
		score := w.d[j]
		if st == atUpper {
			score = -score
		}
		if score > bestScore {
			if bland {
				return j
			}
			best, bestScore = j, score
		}
	}
	return best
}

// pivot makes column q (whose B⁻¹A_q is in col) basic in row r, updating
// the inverse. The caller sets beta[r] and the leaving column's status.
func (w *Workspace) pivot(r, q int) {
	m := w.m
	row := w.binv[r*m : (r+1)*m]
	inv := 1 / w.col[r]
	for k := range row {
		row[k] *= inv
	}
	for i := 0; i < m; i++ {
		f := w.col[i]
		if i == r || f == 0 {
			continue
		}
		for k, b := range row {
			w.binv[i*m+k] -= f * b
		}
	}
	w.basis[r] = q
	w.status[q] = basic
	w.updates++
}

// primal runs the bounded primal simplex from the current basis to
// optimality, switching to Bland's rule after a stall. Phase 1 is
// composite: while any basic variable is outside its bounds the
// iteration prices the sum of infeasibilities, and an infeasible basic
// variable blocks the step where it reaches the bound it violates.
func (w *Workspace) primal(done <-chan struct{}) Status {
	m := w.m
	stall, wasPhase1 := 0, false
	for it := 0; it < w.maxIter; it++ {
		if w.polled(done) {
			return canceled
		}
		if w.updates >= refactorEvery && !w.refactor() {
			return IterLimit
		}
		phase1 := w.basicCosts()
		if phase1 != wasPhase1 {
			stall, wasPhase1 = 0, phase1
		}
		w.price(phase1)
		bland := stall > 2*(m+8)
		q := w.chooseEntering(bland)
		if q < 0 {
			if phase1 {
				return Infeasible
			}
			if w.washedOut() {
				if !w.refactor() {
					return IterLimit
				}
				continue
			}
			return Optimal
		}
		w.stats.PrimalIterations++
		w.ftran(q)
		// Direction: +1 when increasing from the lower bound, −1 when
		// decreasing from the upper bound.
		sigma := 1.0
		if w.status[q] == atUpper {
			sigma = -1
		}
		delta := w.hi[q] - w.lo[q] // may be +Inf
		leave, leaveToUpper := -1, false
		for i := 0; i < m; i++ {
			g := w.col[i] * sigma // basic i moves at rate −g
			bj := w.basis[i]
			var bound float64
			var toUpper bool
			switch {
			case g > pivTol && w.beta[i] > w.hi[bj]+feasTol:
				bound, toUpper = w.hi[bj], true // infeasible above, falling to its bound
			case g > pivTol && w.beta[i] >= w.lo[bj]-feasTol:
				bound, toUpper = w.lo[bj], false
			case g < -pivTol && w.beta[i] < w.lo[bj]-feasTol:
				bound, toUpper = w.lo[bj], false // infeasible below, rising to its bound
			case g < -pivTol && w.beta[i] <= w.hi[bj]+feasTol:
				bound, toUpper = w.hi[bj], true
			default:
				continue // not moving, or infeasible and moving away
			}
			if math.IsInf(bound, 0) {
				continue
			}
			lim := (w.beta[i] - bound) / g
			if lim < delta-pivTol || (lim < delta+pivTol && leave >= 0 && w.prefer(i, leave, bland)) {
				delta, leave, leaveToUpper = math.Max(lim, 0), i, toUpper
			}
		}
		if math.IsInf(delta, 1) {
			if phase1 {
				return IterLimit // an improving phase-1 ray cannot exist: numerical trouble
			}
			return Unbounded
		}
		if delta*math.Abs(w.d[q]) > 1e-12 {
			stall = 0
		} else {
			stall++
		}
		if delta != 0 {
			for i := 0; i < m; i++ {
				w.beta[i] -= sigma * delta * w.col[i]
			}
			w.notePeak()
		}
		if leave < 0 {
			// Bound flip: q moves to its opposite bound, basis unchanged.
			if w.status[q] == atLower {
				w.status[q] = atUpper
			} else {
				w.status[q] = atLower
			}
			continue
		}
		enterVal := w.value(q) + sigma*delta
		leaving := w.basis[leave]
		w.pivot(leave, q)
		w.beta[leave] = enterVal
		w.rest(leaving, leaveToUpper)
	}
	return IterLimit
}

// prefer breaks a ratio-test tie between rows i and cur: the larger
// pivot for stability, or under Bland's rule the lower column index.
func (w *Workspace) prefer(i, cur int, bland bool) bool {
	if bland {
		return w.basis[i] < w.basis[cur]
	}
	return math.Abs(w.col[i]) > math.Abs(w.col[cur])
}

// dual runs the bounded dual simplex from the held dual-feasible basis
// until no basic variable violates a bound. d is maintained across
// iterations (and across Reoptimize calls) by the pivot row, and rebuilt
// from y at every refactor. IterLimit means the run stalled or lost
// numerical agreement; the caller then solves cold.
func (w *Workspace) dual(done <-chan struct{}) Status {
	n, m := w.n, w.m
	stall, retried := 0, false
	for it := 0; it < w.maxIter; it++ {
		if w.polled(done) {
			return canceled
		}
		if w.updates >= refactorEvery && !w.rebuild() {
			return IterLimit
		}
		// Leaving row: the largest bound violation.
		r, worst, s := -1, feasTol, 0.0
		for i, bj := range w.basis {
			if v := w.lo[bj] - w.beta[i]; v > worst {
				r, worst, s = i, v, -1
			} else if v := w.beta[i] - w.hi[bj]; v > worst {
				r, worst, s = i, v, 1
			}
		}
		if r < 0 {
			if w.washedOut() {
				if !w.rebuild() {
					return IterLimit
				}
				continue
			}
			return Optimal
		}
		// Pivot row alpha_j = e_rᵀ B⁻¹ A_j over every column.
		rho := w.binv[r*m : (r+1)*m]
		clear(w.alpha[:n])
		for i, ri := range rho {
			w.alpha[n+i] = ri
			if ri != 0 {
				axpy(w.alpha[:n], ri, w.p.A[i])
			}
		}
		// Ratio test (Harris). Basic r changes by −alpha_j·Δx_j, so with s
		// the side it violates (+1 above hi, −1 below lo) a column helps
		// when s·alpha_j·Δx_j > 0. The first pass finds how far the duals
		// can move if every reduced cost may overshoot zero by optTol; the
		// second takes, among the columns whose own ratio is within that
		// step, the largest pivot. A tolerance on the ratios themselves
		// would be meaningless: they scale with 1/|alpha|.
		maxStep, cand := math.Inf(1), w.cand[:0]
		for j, st := range w.status {
			if st >= fixed {
				continue
			}
			a := s * w.alpha[j]
			if st == atUpper {
				a = -a
			}
			if a <= pivTol {
				continue
			}
			// |d_j| is −d_j at a lower bound and d_j at an upper one, up to
			// the optTol by which either may already overshoot.
			if step := (math.Abs(w.d[j]) + optTol) / a; step < maxStep {
				maxStep = step
			}
			cand = append(cand, int32(j))
		}
		q, best, bestA := -1, 0.0, 0.0
		for _, j := range cand {
			a, dj := s*w.alpha[j], -w.d[j]
			if w.status[j] == atUpper {
				a, dj = -a, -dj
			}
			ratio := dj / a
			if ratio < 0 {
				ratio = 0
			}
			if ratio <= maxStep && a > bestA {
				q, best, bestA = int(j), ratio, a
			}
		}
		if q < 0 {
			return Infeasible
		}
		w.ftran(q)
		if aq := w.alpha[q]; math.Abs(w.col[r]-aq) > 1e-7*(1+math.Abs(aq)) {
			// The row and column views of the pivot disagree: rebuild the
			// inverse once and retry, then give up.
			if retried || !w.rebuild() {
				return IterLimit
			}
			retried = true
			continue
		}
		retried = false
		w.stats.DualIterations++
		if best*worst > 1e-12 {
			stall = 0
		} else if stall++; stall > 2*(m+8) {
			return IterLimit
		}
		leaving := w.basis[r]
		target := w.lo[leaving]
		if s > 0 {
			target = w.hi[leaving]
		}
		step := (w.beta[r] - target) / w.col[r] // Δx_q
		for i := 0; i < m; i++ {
			w.beta[i] -= w.col[i] * step
		}
		w.notePeak()
		if theta := w.d[q] / w.col[r]; theta != 0 {
			axpy(w.d, -theta, w.alpha)
		}
		w.d[q] = 0
		enterVal := w.value(q) + step
		w.pivot(r, q)
		w.beta[r] = enterVal
		w.rest(leaving, s > 0)
	}
	return IterLimit
}
