// Package ilp implements a branch-and-bound integer linear program solver
// on top of the simplex in internal/lp.
//
// One lp.Workspace serves the whole search: the root relaxation is solved
// cold, and every later node hands the workspace only the bounds in which
// it differs from the node solved before it and re-optimizes from the
// basis the workspace already holds (bounded dual simplex), so a node
// costs a few pivots and no allocation. Branching is on the most
// fractional basic variable with ties — fractionalities within
// branchTieTol of the largest — broken by lowest index, which makes the
// tree a function of the problem and not of the order the LP kernel
// happened to pivot in. Variables that reduced-cost fixing pins for good
// leave the workspace's pivoting, and a large search still without an
// incumbent after a few nodes takes one from a small core of variables.
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
	"cmp"
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
	// Retired counts the variables reduced-cost fixing fixed for good,
	// which the LP kernel then stops pricing.
	Retired int
	// CoreNodes is the restricted-core solve's share of Nodes, its root
	// included; CoreIncumbent says its package became an incumbent.
	CoreNodes     int
	CoreIncumbent bool
	// Stats are the LP kernel's work counters over the whole search, the
	// core's included: WarmSolves (node relaxations re-optimized from the
	// basis of the node before), ColdSolves (the roots, and any node whose
	// warm start failed numerically), DualIterations + PrimalIterations =
	// LPIterations, and Refactorizations.
	lp.Stats
}

const (
	intTol = 1e-6

	rowTol = 1e-7 // the LP kernel's feasibility tolerance

	// A search over more than 2·coreVars variables that has explored
	// coreAfterNodes nodes without an incumbent solves the problem
	// restricted to coreVars of them once, in at most coreMaxNodes nodes
	// (see tryCore).
	coreAfterNodes = 16
	coreVars       = 128
	coreMaxNodes   = 128

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
	Retire(j int)
	Reoptimize(ctx context.Context) (lp.Status, error)
	X() []float64
	Basis() []int
	DJ() []float64
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
	return solve(ctx, p, opt, func(q *lp.Problem) (relaxation, error) {
		w, err := lp.NewWorkspace(q)
		if err != nil {
			return nil, err
		}
		return w, nil
	})
}

// solve is SolveCtx over whichever LP kernel newRelaxation builds.
func solve(ctx context.Context, p *Problem, opt Options, newRelaxation func(*lp.Problem) (relaxation, error)) (*Result, error) {
	n := p.LP.NumVars()
	if p.Integer != nil && len(p.Integer) != n {
		return nil, fmt.Errorf("ilp: Integer has length %d, want %d", len(p.Integer), n)
	}
	maxNodes := opt.MaxNodes
	if maxNodes <= 0 {
		maxNodes = DefaultMaxNodes
	}
	deadline := time.Time{}
	if opt.TimeLimit > 0 {
		deadline = time.Now().Add(opt.TimeLimit)
	}
	rx, err := newRelaxation(&p.LP)
	if err != nil {
		return nil, err
	}

	// Base bounds: the problem's, with integral variables tightened to
	// integers, later tightened further by reduced-cost fixing.
	baseLo := make([]float64, n)
	baseHi := make([]float64, n)
	for j := 0; j < n; j++ {
		lo, hi := 0.0, math.Inf(1)
		if p.LP.Lo != nil {
			lo = p.LP.Lo[j]
		}
		if p.LP.Hi != nil {
			hi = p.LP.Hi[j]
		}
		if p.integral(j) {
			lo = math.Ceil(lo - intTol)
			if !math.IsInf(hi, 1) {
				hi = math.Floor(hi + intTol)
			}
		}
		baseLo[j], baseHi[j] = lo, hi
	}
	// chain lists the variables the node in the relaxation has branched
	// on, with their bounds there; slot[j]−1 is j's place in it, 0 for a
	// variable at its base bounds. baseDirty marks base bounds the
	// relaxation has not seen yet (all of them, before the root).
	type branched struct {
		j      int
		lo, hi float64
	}
	var chain, prev []branched
	slot := make([]int32, n)
	baseDirty := true

	// solveNode moves the relaxation from the node it last solved to nd
	// by handing it only the bounds that differ — those of the two nodes'
	// branching chains, plus every variable after the base bounds moved —
	// and re-optimizes (the root, with no basis to start from, is solved
	// cold). The solution is read off rx until the next call. Walking up
	// from nd meets each variable's tightest bounds first. Branching
	// bounds can conflict with bounds tightened later by reduced-cost
	// fixing; the relaxation reports the empty domain as an infeasible
	// node.
	solveNode := func(nd *node) (lp.Status, error) {
		prev, chain = chain, prev[:0]
		for _, b := range prev {
			slot[b.j] = 0
		}
		for cur := nd; cur.varIdx >= 0; cur = cur.parent {
			j := cur.varIdx
			if slot[j] == 0 {
				chain = append(chain, branched{j, baseLo[j], baseHi[j]})
				slot[j] = int32(len(chain))
			}
			b := &chain[slot[j]-1]
			if cur.hasLo {
				b.lo = math.Max(b.lo, cur.val)
			} else {
				b.hi = math.Min(b.hi, cur.val)
			}
		}
		// Back to base: everything the chain does not cover, after the
		// base bounds moved; else only what the last node's chain covered.
		if baseDirty {
			for j := 0; j < n; j++ {
				if slot[j] == 0 {
					if err := rx.SetBounds(j, baseLo[j], baseHi[j]); err != nil {
						return 0, err
					}
				}
			}
			baseDirty = false
		}
		for _, b := range prev {
			if slot[b.j] == 0 {
				if err := rx.SetBounds(b.j, baseLo[b.j], baseHi[b.j]); err != nil {
					return 0, err
				}
			}
		}
		for _, b := range chain {
			if err := rx.SetBounds(b.j, b.lo, b.hi); err != nil {
				return 0, err
			}
		}
		return rx.Reoptimize(ctx)
	}

	res := &Result{}
	var coreStats lp.Stats // the restricted core's, once it ran
	// done stamps the relaxations' work counters on the result.
	done := func(st Status) (*Result, error) {
		res.Status, res.Stats = st, rx.Stats()
		res.WarmSolves += coreStats.WarmSolves
		res.ColdSolves += coreStats.ColdSolves
		res.DualIterations += coreStats.DualIterations
		res.PrimalIterations += coreStats.PrimalIterations
		res.Refactorizations += coreStats.Refactorizations
		res.LPIterations = res.DualIterations + res.PrimalIterations
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

	// mostFractional returns the integral variable whose LP value is
	// farthest from an integer — the lowest index among those within
	// branchTieTol of the farthest — or -1 if all are integral. Only basic
	// variables can be fractional: every bound an integral variable gets
	// is an integer, and a nonbasic variable rests on one.
	frac := func(x []float64, j int) float64 {
		if j >= n || !p.integral(j) {
			return 0
		}
		return math.Abs(x[j] - math.Round(x[j]))
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
			rx.Retire(j)
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
	// relaxation's buffer, dead until the next solve rewrites it). When
	// rounding moved a value, the rows are checked again: a point that
	// violates one is not installed, and accept returns the variable that
	// was farthest from an integer, to branch on, with its value before
	// rounding. Otherwise it improves the point by local search, installs
	// it as the incumbent if it is better, and returns -1.
	accept := func(x []float64) (q int, v float64) {
		q, far := -1, 0.0
		for j := 0; j < n; j++ {
			if !p.integral(j) {
				continue
			}
			r := math.Round(x[j])
			if f := math.Abs(x[j] - r); f > far {
				q, v, far = j, x[j], f
			}
			x[j] = r
		}
		for i, row := range p.LP.A {
			act[i] = 0
			for j, a := range row {
				act[i] += a * x[j]
			}
			if q >= 0 && !rowOK(i, act[i]) {
				return q, v
			}
		}
		localSearch(x)
		o := 0.0
		for j := 0; j < n; j++ {
			o += p.LP.C[j] * x[j]
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
	st, err := solveNode(root)
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
	root.bound = rx.Objective()
	copy(rootDJ, rx.DJ())
	for j, v := range rx.X() {
		switch {
		case math.Abs(v-baseLo[j]) < 1e-7:
			rootAt[j] = -1
		case math.Abs(v-baseHi[j]) < 1e-7:
			rootAt[j] = 1
		}
	}
	rootBoundInt = internal(root.bound)

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

	// tryCore looks for a first incumbent where the tree has found none:
	// it solves the problem restricted to coreVars variables — the root
	// LP's support, then the smallest root reduced costs, ties to the lower
	// index — with every other one held at its lower bound and the
	// right-hand sides moved to match, and hands the package to accept.
	// The restricted solve streams nothing and stops after coreMaxNodes
	// nodes with whatever it has, so a hard or infeasible core costs the
	// search a bounded detour; its work counts in the result and against
	// the budgets.
	tryCore := func() error {
		var order []int
		for j := 0; j < n; j++ {
			if math.IsInf(baseLo[j], -1) {
				return nil // no bound to hold it at
			} else if baseLo[j] < baseHi[j] {
				order = append(order, j)
			}
		}
		subOpt := Options{MaxNodes: min(maxNodes-res.Nodes-1, coreMaxNodes), Gap: opt.Gap}
		if !deadline.IsZero() {
			subOpt.TimeLimit = max(time.Until(deadline), 1)
		}
		if len(order) <= coreVars || subOpt.MaxNodes <= 0 {
			return nil
		}
		atLower := func(j int) int { return int(-min(rootAt[j], 0)) }
		slices.SortFunc(order, func(a, b int) int {
			return cmp.Or(cmp.Compare(atLower(a), atLower(b)), cmp.Compare(math.Abs(rootDJ[a]), math.Abs(rootDJ[b])), a-b)
		})
		core := order[:coreVars]
		slices.Sort(core)
		sub := &Problem{Integer: make([]bool, coreVars), LP: lp.Problem{
			Maximize: p.LP.Maximize, Op: p.LP.Op, B: slices.Clone(p.LP.B),
			C: make([]float64, coreVars), Lo: make([]float64, coreVars), Hi: make([]float64, coreVars),
		}}
		x := slices.Clone(baseLo) // the held values, and then the package
		for k, j := range core {
			sub.Integer[k], x[j] = p.integral(j), 0
			sub.LP.C[k], sub.LP.Lo[k], sub.LP.Hi[k] = p.LP.C[j], baseLo[j], baseHi[j]
		}
		for i, row := range p.LP.A {
			sub.LP.A = append(sub.LP.A, make([]float64, coreVars))
			for k, j := range core {
				sub.LP.A[i][k] = row[j]
			}
			for j, xj := range x {
				if xj != 0 {
					sub.LP.B[i] -= row[j] * xj
				}
			}
		}
		r, err := solve(ctx, sub, subOpt, newRelaxation)
		if err != nil {
			return err
		}
		coreStats, res.CoreNodes = r.Stats, r.Nodes+1
		res.Nodes += res.CoreNodes
		if r.HasIncumbent {
			for k, j := range core {
				x[j] = r.X[k]
			}
			accept(x)
			res.CoreIncumbent = res.HasIncumbent
		}
		return nil
	}

	// The search interleaves best-first selection from the heap with
	// depth-first plunges: after branching, the near child is solved
	// immediately and the far child is queued.
	current := branch(root)

	res.BestBound = root.bound
	// limited: a budget ran out. lost: the best bound of any node whose
	// relaxation failed (lp.IterLimit) — its subtree was dropped, not
	// refuted, so the search can no longer prove optimality.
	limited, lost, coreTried := false, worst, false
	for current != nil || h.Len() > 0 {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if res.Nodes >= maxNodes {
			limited = true
			break
		}
		if !deadline.IsZero() && time.Now().After(deadline) {
			limited = true
			break
		}
		if res.Nodes >= coreAfterNodes && !res.HasIncumbent && n > 2*coreVars && !coreTried {
			coreTried = true
			if err := tryCore(); err != nil {
				return nil, err
			}
			continue // the budgets again, and the new incumbent may prune
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
			return nil, err
		}
		switch st {
		case lp.Infeasible:
			continue
		case lp.IterLimit:
			if better(nd.bound, lost) {
				lost = nd.bound
			}
			continue
		case lp.Unbounded:
			// A bounded parent relaxation cannot become unbounded by
			// tightening bounds; defensive skip.
			continue
		}
		nd.bound = rx.Objective()
		if pruned(nd.bound) {
			continue
		}
		current = branch(nd) // plunge
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
		return done(ResourceLimit)
	case !res.HasIncumbent:
		return done(Infeasible)
	}
	return done(Optimal)
}
