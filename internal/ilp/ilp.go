// Package ilp implements a branch-and-bound integer linear program solver
// on top of the simplex in internal/lp.
//
// One lp.Workspace serves a whole tree: its root relaxation is solved
// cold, and every later node hands the workspace only the bounds in which
// it differs from the node solved before it and re-optimizes from the
// basis the workspace already holds (bounded dual simplex), so a node
// costs a few pivots and no allocation. Branching is on the most
// fractional basic variable with ties — fractionalities within
// branchTieTol of the largest — broken by lowest index, which makes the
// tree a function of the problem and not of the order the LP kernel
// happened to pivot in. A search over many variables sifts its root over
// a working set its own duals price, branches over one that the root's
// reduced costs choose, and reports an optimum only once the same reduced
// costs certify every variable left out of it.
//
// It is the repository's stand-in for the black-box commercial solver
// (IBM CPLEX) used in the paper: same contract — the caller hands over a
// full ILP and receives an optimal solution, an infeasibility verdict, or
// a resource failure. The paper's observation that solvers "choke" on hard
// or large problems (running out of memory even when the data fits in RAM)
// is reproduced honestly through explicit resource budgets: MaxNodes
// bounds the size of the branch-and-bound tree (the solver's working
// memory) and TimeLimit the wall clock, mirroring the paper's one-hour
// CPLEX cap.
package ilp

import (
	"container/heap"
	"context"
	"fmt"
	"math"
	"slices"
	"time"

	"repro/internal/lp"
)

// Problem is an integer linear program: an LP plus integrality marks.
type Problem struct {
	LP      lp.Problem
	Integer []bool // Integer[j] ⇒ xⱼ ∈ ℤ; nil means all variables integral
}

// integral reports whether variable j must take an integer value.
func (p *Problem) integral(j int) bool {
	if p.Integer == nil {
		return true
	}
	return p.Integer[j]
}

// Status is the outcome of an ILP solve.
type Status int

const (
	// Optimal means a provably optimal integral solution was found
	// (within the configured gap).
	Optimal Status = iota
	// Infeasible means no integral solution exists.
	Infeasible
	// Unbounded means the relaxation (and hence the ILP if feasible) is
	// unbounded.
	Unbounded
	// ResourceLimit means a node or time budget was exhausted
	// before the search finished — the emulation of the paper's solver
	// failures. A best-effort incumbent may still be present.
	ResourceLimit
)

// String names the status.
func (s Status) String() string {
	switch s {
	case Optimal:
		return "optimal"
	case Infeasible:
		return "infeasible"
	case Unbounded:
		return "unbounded"
	case ResourceLimit:
		return "resource-limit"
	default:
		return fmt.Sprintf("Status(%d)", int(s))
	}
}

// Options configures the search budgets.
type Options struct {
	// TimeLimit bounds wall-clock solve time; 0 means no limit. The paper
	// ran CPLEX with a one-hour cap.
	TimeLimit time.Duration
	// MaxNodes bounds the number of branch-and-bound nodes explored;
	// 0 means DefaultMaxNodes. Exhausting it is reported as
	// ResourceLimit, emulating solver memory/complexity failures.
	MaxNodes int
	// Gap is the relative optimality gap at which search stops (e.g.
	// 1e-6). Zero means prove optimality exactly (modulo tolerances).
	Gap float64
	// AcceptIncumbent makes a budget-exhausted solve with a feasible
	// incumbent acceptable to callers: Result.Status is still
	// ResourceLimit, but SketchRefine subproblems use the incumbent
	// rather than failing (the behavior of production solvers under a
	// time limit). DIRECT keeps it off, reproducing the paper's hard
	// solver failures.
	AcceptIncumbent bool
	// OnIncumbent, when non-nil, is invoked from inside the search each
	// time a strictly better integral incumbent is installed — the hook
	// that turns a solve into an anytime computation. The callback
	// receives a private copy of the solution vector, the objective in
	// the problem's own sense, and the number of nodes explored so far.
	// It runs synchronously on the solving goroutine: keep it cheap, and
	// do not call back into the solver from it.
	OnIncumbent func(x []float64, obj float64, nodes int)
}

// DefaultMaxNodes is the node budget used when Options.MaxNodes is 0.
const DefaultMaxNodes = 200000

// Result is the outcome of SolveCtx.
type Result struct {
	Status    Status
	X         []float64 // integral solution (valid for Optimal, and for ResourceLimit when HasIncumbent)
	Objective float64
	// BestBound is the best proven bound on the optimum (meaningful for
	// ResourceLimit: the true optimum lies between Objective and it).
	BestBound    float64
	Nodes        int
	HasIncumbent bool
	// LPIterations is the total simplex iterations across all nodes.
	LPIterations int
	// Incumbents counts the strictly improving incumbents installed
	// during the search (each one was also passed to OnIncumbent).
	Incumbents int
	// Retired counts the variables reduced-cost fixing fixed for good.
	Retired int
	// Rounds counts the working-set rounds, each one's root included in
	// Nodes (0: the search ran over every variable); WorkingSet is how
	// many variables the last round branched over. RootRounds and
	// RootColumns say the same of the root LP's sifting (1 and n: unsifted).
	Rounds, WorkingSet, RootRounds, RootColumns int
	// Stats are the LP kernel's work counters over the whole search, every
	// round's included: WarmSolves (node relaxations re-optimized from the
	// basis of the node before), ColdSolves (RootRounds + Rounds, and any
	// node whose warm start failed numerically), DualIterations +
	// PrimalIterations = LPIterations, and Refactorizations.
	lp.Stats
}

const (
	intTol = 1e-6

	rowTol = 1e-7 // the LP kernel's feasibility tolerance
	optTol = 1e-9 // the LP kernel's optimality tolerance

	// workingSet is the size of a search's first working sets, and of a
	// sifting round's additions, over more than twice as many variables.
	workingSet = 64

	// branchTieTol is the band below the largest fractionality inside
	// which branching candidates count as tied. Under a COUNT(*) = k row
	// two fractional basics have fractional parts f and 1−f, exactly the
	// same distance from an integer, and which of them floating point
	// makes "larger" depends on the pivot order. LP values are only
	// meaningful to the simplex's feasibility tolerance (1e-7), so that is
	// the band: wide enough to swallow the noise (~1e-12 relative), far
	// narrower than any gap between genuinely different candidates on the
	// workloads (TestTreeIndependentOfPivotPath pins the consequence).
	branchTieTol = 1e-7

	// nodeChunk is how many nodes the arena allocates at a time.
	nodeChunk = 128
)

// relaxation is what branch and bound needs from the LP kernel:
// *lp.Workspace, or in tests an oracle standing in for it.
type relaxation interface {
	SetBounds(j int, lo, hi float64) error
	Reoptimize(ctx context.Context) (lp.Status, error)
	X() []float64
	Basis() []int
	DJ() []float64
	Duals() []float64
	Objective() float64
	Stats() lp.Stats
}

type node struct {
	bound  float64 // LP relaxation objective (in the problem's own sense)
	parent *node
	// Bound change introduced by this node relative to parent (root has
	// varIdx < 0): a new lower bound when hasLo, else a new upper bound.
	varIdx int
	val    float64
	hasLo  bool
}

// nodeArena hands out nodes from fixed-size chunks, so pointers stay
// valid and the search allocates once per nodeChunk nodes, not per node.
type nodeArena struct {
	chunks [][]node
	used   int // nodes taken from the last chunk
}

func (a *nodeArena) new(nd node) *node {
	if len(a.chunks) == 0 || a.used == nodeChunk {
		a.chunks = append(a.chunks, make([]node, nodeChunk))
		a.used = 0
	}
	p := &a.chunks[len(a.chunks)-1][a.used]
	a.used++
	*p = nd
	return p
}

// nodeHeap is a priority queue ordered best-bound-first.
type nodeHeap struct {
	nodes    []*node
	maximize bool
}

func (h *nodeHeap) Len() int { return len(h.nodes) }
func (h *nodeHeap) Less(i, j int) bool {
	if h.maximize {
		return h.nodes[i].bound > h.nodes[j].bound
	}
	return h.nodes[i].bound < h.nodes[j].bound
}
func (h *nodeHeap) Swap(i, j int) { h.nodes[i], h.nodes[j] = h.nodes[j], h.nodes[i] }
func (h *nodeHeap) Push(x any)    { h.nodes = append(h.nodes, x.(*node)) }
func (h *nodeHeap) Pop() any {
	old := h.nodes
	n := old[len(old)-1]
	h.nodes = old[:len(old)-1]
	return n
}

// SolveCtx runs branch and bound and returns the best integral solution.
// Cancellation (or a context deadline) aborts the search — including any
// in-flight simplex solve — and returns the context's error. This is
// what lets a caller race several solves and cheaply cancel the losers.
func SolveCtx(ctx context.Context, p *Problem, opt Options) (*Result, error) {
	return solve(ctx, p, opt, workingSet, func(q *lp.Problem) (relaxation, error) { return lp.NewWorkspace(q) })
}

// solve is SolveCtx over whichever LP kernel newRelaxation builds, with a
// first working set of initial variables for a problem over more than
// 2·initial.
//
// Such a search sifts the root relaxation: it solves it over a working
// set W, every other variable held at its lower bound, and up to initial
// of those whose reduced cost under the duals would improve the objective
// (or cut the infeasibility of W alone) join W, until none would. W starts
// as the initial best objective coefficients, the continuous variables
// and those with no lower bound. Unless the root is integral, the search
// then branches in rounds, each over a fresh W: first the root's variables
// off their lower bound and the continuous ones, filled up to initial with
// the smallest root |dⱼ|. A round that explores |W| nodes without an
// incumbent ends and W doubles. One that ends with an incumbent z checks
// the variables left out by reduced-cost fixing's test (root bound − |dⱼ|
// cannot beat z): any that fail join W for another round with z as its
// cutoff. The answer is optimal only when none fails.
func solve(ctx context.Context, p *Problem, opt Options, initial int, newRelaxation func(*lp.Problem) (relaxation, error)) (*Result, error) {
	n := p.LP.NumVars()
	if p.Integer != nil && len(p.Integer) != n {
		return nil, fmt.Errorf("ilp: Integer has length %d, want %d", len(p.Integer), n)
	}
	if err := p.LP.Validate(); err != nil {
		return nil, fmt.Errorf("%w: %v", lp.ErrBadProblem, err)
	}
	maxNodes := opt.MaxNodes
	if maxNodes <= 0 {
		maxNodes = DefaultMaxNodes
	}
	deadline := time.Time{}
	if opt.TimeLimit > 0 {
		deadline = time.Now().Add(opt.TimeLimit)
	}
	var rx relaxation

	// Base bounds: the problem's, with integral variables tightened to
	// integers, later tightened further by reduced-cost fixing.
	baseLo := make([]float64, n)
	baseHi := make([]float64, n)
	for j := 0; j < n; j++ {
		lo, hi := p.LP.Bounds(j)
		if p.integral(j) {
			lo = math.Ceil(lo - intTol)
			if !math.IsInf(hi, 1) {
				hi = math.Floor(hi + intTol)
			}
		}
		baseLo[j], baseHi[j] = lo, hi
	}
	// Column k of rx is variable full(k): the identity, or in a
	// working-set round the variables listed in cols, with the others held
	// at their lower bounds adding offset to the objective. Nodes branch on
	// columns; bounds, incumbents and reduced costs speak of variables.
	var cols []int
	width, offset := n, 0.0
	full := func(k int) int {
		if cols == nil {
			return k
		}
		return cols[k]
	}
	// chain lists the columns the node in the relaxation has branched on,
	// with their bounds there; slot[k]−1 is k's place in it, 0 for a column
	// at its base bounds. baseDirty marks base bounds the relaxation has not
	// seen yet (all of them, before the root).
	type branched struct {
		k      int
		lo, hi float64
	}
	var chain, prev []branched
	slot := make([]int32, n)
	baseDirty := true

	// solveNode moves the relaxation from the node it last solved to nd
	// by handing it only the bounds that differ — those of the two nodes'
	// branching chains, plus every column after the base bounds moved —
	// and re-optimizes (the root, with no basis to start from, is solved
	// cold). The solution is read off rx until the next call. Walking up
	// from nd meets each column's tightest bounds first. Branching
	// bounds can conflict with bounds tightened later by reduced-cost
	// fixing; the relaxation reports the empty domain as an infeasible
	// node.
	solveNode := func(nd *node) (lp.Status, error) {
		prev, chain = chain, prev[:0]
		for _, b := range prev {
			slot[b.k] = 0
		}
		for cur := nd; cur.varIdx >= 0; cur = cur.parent {
			k := cur.varIdx
			if slot[k] == 0 {
				chain = append(chain, branched{k, baseLo[full(k)], baseHi[full(k)]})
				slot[k] = int32(len(chain))
			}
			b := &chain[slot[k]-1]
			if cur.hasLo {
				b.lo = math.Max(b.lo, cur.val)
			} else {
				b.hi = math.Min(b.hi, cur.val)
			}
		}
		// Back to base: everything the chain does not cover, after the
		// base bounds moved; else only what the last node's chain covered.
		if baseDirty {
			for k := 0; k < width; k++ {
				if slot[k] == 0 {
					if err := rx.SetBounds(k, baseLo[full(k)], baseHi[full(k)]); err != nil {
						return 0, err
					}
				}
			}
			baseDirty = false
		}
		for _, b := range prev {
			if slot[b.k] == 0 {
				if err := rx.SetBounds(b.k, baseLo[full(b.k)], baseHi[full(b.k)]); err != nil {
					return 0, err
				}
			}
		}
		for _, b := range chain {
			if err := rx.SetBounds(b.k, b.lo, b.hi); err != nil {
				return 0, err
			}
		}
		return rx.Reoptimize(ctx)
	}

	res := &Result{}
	// tally adds the relaxation's work counters to the result's; done
	// stamps the final ones.
	tally := func() {
		if rx == nil {
			return
		}
		s := rx.Stats()
		res.WarmSolves += s.WarmSolves
		res.ColdSolves += s.ColdSolves
		res.DualIterations += s.DualIterations
		res.PrimalIterations += s.PrimalIterations
		res.Refactorizations += s.Refactorizations
	}
	done := func(st Status) (*Result, error) {
		tally()
		res.Status, res.LPIterations = st, res.DualIterations+res.PrimalIterations
		return res, nil
	}
	better := func(a, b float64) bool {
		if p.LP.Maximize {
			return a > b
		}
		return a < b
	}
	worst := math.Inf(1) // the bound that is better than nothing
	if p.LP.Maximize {
		worst = math.Inf(-1)
	}

	// mostFractional returns the column of an integral variable whose LP
	// value is farthest from an integer — the lowest index among those
	// within branchTieTol of the farthest — or -1 if all are integral. Only
	// basic columns can be fractional: every bound an integral variable gets
	// is an integer, and a nonbasic column rests on one.
	frac := func(x []float64, k int) float64 {
		if k >= width || !p.integral(full(k)) {
			return 0
		}
		return math.Abs(x[k] - math.Round(x[k]))
	}
	mostFractional := func() int {
		x, basis := rx.X(), rx.Basis()
		far := intTol
		for _, j := range basis {
			far = math.Max(far, frac(x, j))
		}
		q := -1
		for _, j := range basis {
			if f := frac(x, j); f > intTol && f >= far-branchTieTol && (q < 0 || j < q) {
				q = j
			}
		}
		return q
	}

	// Root information for reduced-cost variable fixing: the reduced
	// costs, and which bound (−1 lower, +1 upper, 0 neither) each variable
	// sat at.
	rootDJ := make([]float64, n)
	rootAt := make([]int8, n)
	rootBoundInt := math.Inf(1) // root LP bound in internal max sense
	internal := func(v float64) float64 {
		if p.LP.Maximize {
			return v
		}
		return -v
	}

	// fixByReducedCost tightens base bounds using the root LP duals:
	// a variable nonbasic at a bound in the root relaxation whose
	// reduced cost alone already closes the incumbent gap can never
	// move in an improving solution, so it is fixed permanently. This
	// is decisive on package-query ILPs, where hundreds of
	// near-substitutable tuples otherwise keep the search tree alive.
	fixByReducedCost := func() {
		slack := rootBoundInt - internal(res.Objective)
		tol := 1e-7 * (1 + math.Abs(res.Objective))
		for j := 0; j < n; j++ {
			if !p.integral(j) || baseHi[j]-baseLo[j] < 1 {
				continue
			}
			dj := rootDJ[j]
			switch {
			case rootAt[j] < 0 && dj <= 0 && -dj >= slack-tol:
				baseHi[j] = baseLo[j]
			case rootAt[j] > 0 && dj >= 0 && dj >= slack-tol:
				baseLo[j] = baseHi[j]
			default:
				continue
			}
			baseDirty = true
			res.Retired++
		}
	}

	// act is the row activity A·x of the point accept is looking at, and
	// rowOK says whether row i holds at activity v.
	m := p.LP.NumRows()
	act := make([]float64, m)
	rowOK := func(i int, v float64) bool {
		switch p.LP.Op[i] {
		case lp.LE:
			return v <= p.LP.B[i]+rowTol
		case lp.GE:
			return v >= p.LP.B[i]-rowTol
		}
		return math.Abs(v-p.LP.B[i]) <= rowTol
	}

	// localSearch improves an integral solution, whose activity is in
	// act, by unit swaps: move one unit from variable a to variable b when
	// that improves the objective and keeps every constraint satisfied.
	// Package queries are full of near-substitutable tuples, so swap
	// improvement routinely lifts plunge incumbents to (near-)optimal,
	// which lets bound pruning and reduced-cost fixing finish the search.
	// Skipped for very large problems where the pair scan would dominate.
	const localSearchMaxVars = 4000
	localSearch := func(x []float64) {
		if n > localSearchMaxVars {
			return
		}
		feasibleAfter := func(a, b int) bool {
			for i := 0; i < m; i++ {
				if !rowOK(i, act[i]-p.LP.A[i][a]+p.LP.A[i][b]) {
					return false
				}
			}
			return true
		}
		sign := 1.0
		if !p.LP.Maximize {
			sign = -1
		}
		for pass := 0; pass < 4; pass++ {
			improved := false
			for a := 0; a < n; a++ {
				if !p.integral(a) || x[a] <= baseLo[a]+1e-9 {
					continue
				}
				for b := 0; b < n; b++ {
					if b == a || !p.integral(b) || x[b] >= baseHi[b]-1e-9 {
						continue
					}
					if sign*(p.LP.C[b]-p.LP.C[a]) <= 1e-12 {
						continue
					}
					if !feasibleAfter(a, b) {
						continue
					}
					x[a]--
					x[b]++
					for i := 0; i < m; i++ {
						act[i] += p.LP.A[i][b] - p.LP.A[i][a]
					}
					improved = true
					if x[a] <= baseLo[a]+1e-9 {
						break
					}
				}
			}
			if !improved {
				break
			}
		}
	}

	// accept rounds an integral LP solution in place (x is the
	// relaxation's buffer, dead until the next solve rewrites it; in a
	// round the rounded values go to a copy of baseLo, where every variable
	// the round holds sits). When rounding moved a value, the rows are
	// checked again: a point that violates one is not installed, and accept
	// returns the column that was farthest from an integer, to branch on,
	// with its value before rounding. Otherwise it improves the point by
	// local search, installs it as the incumbent if it is better, and
	// returns -1.
	var lifted []float64
	accept := func(x []float64) (q int, v float64) {
		xf := x
		if cols != nil {
			lifted = append(lifted[:0], baseLo...)
			xf = lifted
		}
		q, far := -1, 0.0
		for k, xk := range x {
			j := full(k)
			if xf[j] = xk; p.integral(j) {
				xf[j] = math.Round(xk)
				if f := math.Abs(xk - xf[j]); f > far {
					q, v, far = k, xk, f
				}
			}
		}
		// Sum over the package alone: a zero xⱼ's ±0 term moves no bit of a sum that is never −0.
		x = xf
		clear(act)
		for j, xj := range x {
			if xj != 0 {
				for i, row := range p.LP.A {
					act[i] += row[j] * xj
				}
			}
		}
		for i := range act {
			if q >= 0 && !rowOK(i, act[i]) {
				return q, v
			}
		}
		localSearch(x)
		o := 0.0
		for j, xj := range x {
			if xj != 0 {
				o += p.LP.C[j] * xj
			}
		}
		if res.HasIncumbent && !better(o, res.Objective) {
			return -1, 0
		}
		if res.X == nil {
			res.X = make([]float64, n)
		}
		copy(res.X, x)
		res.HasIncumbent = true
		res.Objective = o
		res.Incumbents++
		if opt.OnIncumbent != nil {
			cp := make([]float64, n)
			copy(cp, x)
			opt.OnIncumbent(cp, o, res.Nodes)
		}
		fixByReducedCost()
		return -1, 0
	}

	var arena nodeArena
	root := arena.new(node{varIdx: -1})
	h := &nodeHeap{maximize: p.LP.Maximize}

	// pruned reports whether a bound cannot beat the incumbent. The
	// tolerance is relative: package-query objectives can be ~1e5 in
	// magnitude, where LP degeneracy noise far exceeds any absolute
	// epsilon and would otherwise keep equal-bound nodes alive.
	pruned := func(bound float64) bool {
		if !res.HasIncumbent {
			return false
		}
		tol := 1e-7 * (1 + math.Abs(res.Objective))
		if p.LP.Maximize {
			if bound <= res.Objective+tol {
				return true
			}
		} else if bound >= res.Objective-tol {
			return true
		}
		if opt.Gap > 0 {
			gap := math.Abs(bound-res.Objective) / math.Max(1, math.Abs(res.Objective))
			if gap <= opt.Gap {
				return true
			}
		}
		return false
	}

	// branch takes the node just solved: an integral point goes to accept,
	// and otherwise — or when accept asks — it queues the far child and
	// returns the near one, on the side the LP value rounds to. Diving into
	// it (plunging) finds incumbents quickly, which best-first search alone
	// can postpone almost indefinitely on knapsack-like package queries.
	branch := func(nd *node) *node {
		q, v := mostFractional(), 0.0
		if q >= 0 {
			v = rx.X()[q]
		} else if q, v = accept(rx.X()); q < 0 {
			return nil
		}
		down := arena.new(node{parent: nd, varIdx: q, val: math.Floor(v), bound: nd.bound})
		up := arena.new(node{parent: nd, varIdx: q, val: math.Ceil(v), hasLo: true, bound: nd.bound})
		if v-math.Floor(v) <= 0.5 {
			heap.Push(h, up)
			return down
		}
		heap.Push(h, down)
		return up
	}

	// search runs branch and bound over rx from current, the node to solve
	// next, until the tree is exhausted, a budget runs out (limited), or —
	// with giveUp — width nodes pass without an incumbent. It interleaves
	// best-first selection from the heap with depth-first plunges: after
	// branching, the near child is solved immediately and the far child is
	// queued. It returns the best bound of any node whose relaxation failed
	// (lp.IterLimit): that subtree was dropped, not refuted, so the search
	// can no longer prove optimality.
	limited := false
	search := func(current *node, giveUp bool) (lost float64, err error) {
		lost, start := worst, res.Nodes
		res.BestBound = root.bound
		for current != nil || h.Len() > 0 {
			if err := ctx.Err(); err != nil {
				return lost, err
			}
			if res.Nodes >= maxNodes || !deadline.IsZero() && time.Now().After(deadline) {
				limited = true
				break
			}
			if giveUp && !res.HasIncumbent && res.Nodes-start >= width {
				break
			}
			nd := current
			current = nil
			if nd == nil {
				nd = heap.Pop(h).(*node)
				res.BestBound = nd.bound
				if pruned(nd.bound) {
					// Best-first: every remaining heap node is no better.
					break
				}
			} else if pruned(nd.bound) {
				continue
			}
			res.Nodes++
			st, err := solveNode(nd)
			if err != nil {
				return lost, err
			}
			if st != lp.Optimal {
				// Infeasible, or failed; a bounded parent relaxation cannot
				// become unbounded by tightening bounds (a defensive skip).
				if st == lp.IterLimit && better(nd.bound, lost) {
					lost = nd.bound
				}
				continue
			}
			nd.bound = rx.Objective() + offset
			if pruned(nd.bound) {
				continue
			}
			current = branch(nd) // plunge
		}
		return lost, nil
	}

	// The working set: inW marks its variables. movable says variable j is
	// outside it and may still leave its lower bound, which reduced-cost
	// fixing rules out for every one that passes the exclusion test.
	var inW []bool
	movable := func(j int) bool { return !inW[j] && baseHi[j] > baseLo[j] }

	// grow fills the working set up to size variables with movable ones
	// of the smallest key below cut: with k places left and t the k-th
	// smallest key, every one below t less a band of branchTieTol·(1+|t|),
	// then the lowest indices within the band — so the set is a function of
	// the problem, not of the kernel's pivot path, as mostFractional's is.
	// It returns how many it added; left is how many stay out.
	cand, val, left := []int(nil), []float64(nil), 0
	grow := func(size int, key func(j int) float64, cut float64) int {
		k, cand, val := size, cand[:0], val[:0]
		for j, in := range inW {
			if in {
				k--
			} else if baseHi[j] > baseLo[j] {
				if v := key(j); v < cut {
					cand, val = append(cand, j), append(val, v)
				}
			}
		}
		k = max(k, 0)
		k0, t, band := k, math.Inf(1), 0.0
		if 0 < k && k < len(val) {
			t = kth(val, k)
			band = branchTieTol * (1 + math.Abs(t))
		}
		for pass := 0; pass < 2; pass++ {
			for c, j := range cand {
				if v := val[c]; k > 0 && !inW[j] && (v < t-band || pass == 1 && v <= t+band) {
					inW[j] = true
					k--
				}
			}
		}
		left = len(cand) - (k0 - k)
		return k0 - k
	}

	// enter makes rx the problem over the working set, with every other
	// variable held at its lower bound and the right-hand sides moved to
	// match.
	enter := func() error {
		q := &lp.Problem{Maximize: p.LP.Maximize, Op: p.LP.Op, B: slices.Clone(p.LP.B), A: make([][]float64, m)}
		cols, offset = cols[:0], 0
		for j, in := range inW {
			if in {
				cols = append(cols, j)
			} else if lo := baseLo[j]; lo != 0 {
				offset += p.LP.C[j] * lo
				for i, row := range p.LP.A {
					q.B[i] -= row[j] * lo
				}
			}
		}
		k := len(cols)
		q.C, q.Lo, q.Hi = make([]float64, k), make([]float64, k), make([]float64, k)
		for c, j := range cols {
			q.C[c], q.Lo[c], q.Hi[c] = p.LP.C[j], baseLo[j], baseHi[j]
		}
		for i, row := range p.LP.A {
			q.A[i] = make([]float64, k)
			for c, j := range cols {
				q.A[i][c] = row[j]
			}
		}
		next, err := newRelaxation(q)
		if err != nil {
			return err
		}
		tally()
		rx, width = next, len(cols)
		return nil
	}

	// sift solves the root relaxation over a working set, as solve's
	// comment describes, and prices every variable outside it into rootDJ.
	sift := func() (lp.Status, error) {
		for j := range baseLo {
			if baseLo[j] > baseHi[j] {
				return lp.Infeasible, nil // as the kernel's empty-domain count is
			}
		}
		inW, cols = make([]bool, n), []int{} // cols: a subset from now on, even an empty one
		cand, val = make([]int, 0, n), make([]float64, 0, n)
		grow(initial, func(j int) float64 { return -internal(p.LP.C[j]) }, math.Inf(1))
		for j := range inW {
			inW[j] = inW[j] || !p.integral(j) || math.IsInf(baseLo[j], -1)
		}
		for {
			if err := enter(); err != nil {
				return 0, err
			}
			res.RootRounds, res.RootColumns = res.RootRounds+1, width
			st, err := solveNode(root)
			if err != nil || st != lp.Optimal && st != lp.Infeasible {
				return st, err
			}
			for j, c := range p.LP.C {
				rootDJ[j], rootAt[j] = internal(c), -1 // at the lower bound, unless in W
			}
			if st == lp.Infeasible {
				clear(rootDJ) // phase 1 prices the infeasibility alone
			}
			for i, yi := range rx.Duals() {
				if yi != 0 {
					for j, a := range p.LP.A[i] {
						rootDJ[j] -= yi * a
					}
				}
			}
			if grow(width+initial, func(j int) float64 { return -rootDJ[j] }, -optTol) == 0 {
				return st, nil
			}
		}
	}

	var st lp.Status
	var err error
	if n > 2*initial {
		st, err = sift()
	} else {
		res.RootRounds, res.RootColumns = 1, n
		if rx, err = newRelaxation(&p.LP); err == nil {
			st, err = solveNode(root)
		}
	}
	if err != nil {
		return nil, err
	}
	switch st {
	case lp.Infeasible:
		return done(Infeasible)
	case lp.Unbounded:
		return done(Unbounded)
	case lp.IterLimit:
		res.BestBound = -worst // nothing is proven
		return done(ResourceLimit)
	}
	root.bound = rx.Objective() + offset
	rootBoundInt = internal(root.bound)
	for k, v := range rx.X() {
		j := full(k)
		rootDJ[j], rootAt[j] = rx.DJ()[k], 0
		switch {
		case math.Abs(v-baseLo[j]) < 1e-7:
			rootAt[j] = -1
		case math.Abs(v-baseHi[j]) < 1e-7:
			rootAt[j] = 1
		}
	}

	lost := worst
	if n <= 2*initial {
		lost, err = search(branch(root), false)
	} else if mostFractional() >= 0 || branch(root) != nil {
		// Rounds, as solve's comment describes (after an integral root too, if
		// rounding it breaks a row: branch's children go with the heap). The
		// basis is not read: a degenerate basic variable rests on its lower
		// bound with dⱼ = 0, so grow takes it in by index, not pivot path.
		for j := range inW {
			inW[j] = rootAt[j] >= 0 || !p.integral(j)
		}
		rootMag := func(j int) float64 { return math.Abs(rootDJ[j]) }
		grow(initial, rootMag, math.Inf(1))
		for err == nil {
			if err = enter(); err != nil {
				break
			}
			res.Rounds, res.WorkingSet = res.Rounds+1, width
			h.nodes = h.nodes[:0] // what the last round left open
			lost, err = search(arena.new(node{varIdx: -1, bound: root.bound}), left > 0)
			size := 2 * width
			if res.HasIncumbent {
				size = n
			}
			if err != nil || limited || grow(size, rootMag, math.Inf(1)) == 0 {
				break
			}
		}
	}
	if err != nil {
		return nil, err
	}

	if !limited {
		// The tree is exhausted: only the incumbent and what was lost remain.
		res.BestBound = worst
		if res.HasIncumbent {
			res.BestBound = res.Objective
		}
	}
	if better(lost, res.BestBound) {
		res.BestBound = lost
	}
	switch {
	case limited || lost != worst:
		// A variable left out of the working set could still reach the
		// root bound less its reduced cost.
		for j := range inW {
			if b := internal(rootBoundInt - math.Abs(rootDJ[j])); movable(j) && better(b, res.BestBound) {
				res.BestBound = b
			}
		}
		return done(ResourceLimit)
	case !res.HasIncumbent:
		return done(Infeasible)
	}
	return done(Optimal)
}

// kth returns the k-th smallest of v, 1 ≤ k ≤ len(v): it keeps the k
// smallest so far in a max-heap, so a later value costs one comparison
// unless it displaces the largest — O(len(v)) for a working set's small k.
func kth(v []float64, k int) float64 {
	h := slices.Clone(v[:k])
	slices.Sort(h)
	slices.Reverse(h) // descending order is a max-heap
	for _, x := range v[k:] {
		if x >= h[0] {
			continue
		}
		h[0] = x
		for i, c := 0, 1; c < k; i, c = c, 2*c+1 {
			if c+1 < k && h[c+1] > h[c] {
				c++
			}
			if h[i] >= h[c] {
				break
			}
			h[i], h[c] = h[c], h[i]
		}
	}
	return h[0]
}
