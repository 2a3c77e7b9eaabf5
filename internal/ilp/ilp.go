// Package ilp implements a branch-and-bound integer linear program solver
// on top of the simplex in internal/lp.
//
// One lp.Workspace serves a whole tree: each node hands it only the
// bounds in which it differs from the node solved before and re-optimizes
// from the basis it holds (bounded dual simplex), so a node costs a few
// pivots and no allocation. Branching is on the most fractional basic
// variable, ties within branchTieTol broken by lowest index, so the tree
// is a function of the problem and not of the kernel's pivot order. A
// search over many variables sifts its root over a working set its own
// duals price, branches over one that the root's reduced costs choose,
// and reports an optimum only once they certify every variable left out.
//
// It is the repository's stand-in for the black-box solver (IBM CPLEX) of
// the paper: the caller hands over a full ILP and receives an optimal
// solution, an infeasibility verdict, or a resource failure. The paper's
// solvers "choking" on hard or large problems is reproduced through
// explicit budgets: MaxNodes bounds the size of the tree (the solver's
// working memory) and TimeLimit the wall clock, as the paper's one-hour
// CPLEX cap.
package ilp

import (
	"container/heap"
	"context"
	"fmt"
	"math"
	"slices"
	"sync"
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
	if names := [...]string{"optimal", "infeasible", "unbounded", "resource-limit"}; s >= 0 && int(s) < len(names) {
		return names[s]
	}
	return fmt.Sprintf("Status(%d)", int(s))
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
	// incumbent acceptable: Result.Status is still ResourceLimit, but
	// SketchRefine uses the incumbent rather than failing, as production
	// solvers do under a time limit. DIRECT keeps it off, reproducing the
	// paper's hard solver failures.
	AcceptIncumbent bool
	// OnIncumbent, when non-nil, is invoked from inside the search each
	// time a strictly better integral incumbent is installed — the hook
	// that turns a solve into an anytime computation. The callback
	// receives the incumbent's nonzero entries in ascending J (read-only,
	// valid during the call only: copy them to keep them), the objective in
	// the problem's own sense, and the number of nodes explored so far. It
	// runs synchronously on the solving goroutine: keep it cheap, and do
	// not call back into the solver.
	OnIncumbent func(entries []Entry, obj float64, nodes int)
}

// DefaultMaxNodes is the node budget used when Options.MaxNodes is 0.
const DefaultMaxNodes = 200000

// Result is the outcome of SolveCtx.
type Result struct {
	Status    Status
	Entries   []Entry // integral solution's nonzeros, ascending J (valid for Optimal, and for ResourceLimit when HasIncumbent)
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
	// which branching candidates count as tied. Under a COUNT(*) = k row two
	// fractional basics sit at f and 1−f, and which of them floating point
	// makes "larger" depends on the pivot order. LP values mean something
	// to the simplex's feasibility tolerance, 1e-7, so that is the band:
	// wider than the noise (~1e-12 relative), narrower than any real gap
	// on the workloads (TestTreeIndependentOfPivotPath pins it).
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
	a, b := h.nodes[i].bound, h.nodes[j].bound
	return h.maximize && a > b || !h.maximize && a < b
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

// scratch is a solve's storage sized by the variable count, reused across solves.
type scratch struct {
	baseLo, baseHi, rootDJ, xs, tops []float64
	rootAt                           []int8
	inW                              []bool
	slot                             []int32
	lowNZ, cols                      []int
	pkg, best                        []Entry
	pick                             picker
}

var scratchPool = sync.Pool{New: func() any { return new(scratch) }}

// Entry is a nonzero entry xⱼ of a point.
type Entry struct {
	J int
	X float64
}

// solve is SolveCtx over whichever LP kernel newRelaxation builds, with a
// first working set of initial variables for a problem over more than
// 2·initial.
//
// Such a search sifts the root relaxation: it solves it over a working
// set W, every other variable held at its lower bound, and up to initial
// of those whose reduced cost under the duals would improve the objective
// (or cut W's infeasibility) join W, until none would. W starts as the
// initial best objective coefficients, the continuous variables and those
// with no lower bound. Unless the root is integral, the search branches in
// rounds, each over a fresh W: first the root's variables off their lower
// bound and the continuous ones, filled up to initial with the smallest
// root |dⱼ|. A round that explores |W| nodes without an incumbent ends and
// W doubles. One that ends with an incumbent z checks the variables left
// out by reduced-cost fixing's test (root bound − |dⱼ| cannot beat z): any
// that fail join W for another round with z as its cutoff. The answer is
// optimal only when none fails.
//
// Past Validate and the pass that sets the base bounds, it reads every
// variable once per sifting round and once per working-set round, on the
// pass that chooses the next W, and never per node or per incumbent (held
// as its nonzero entries) but for local search over at most 4 000, whose
// pair scan reads a block's top before the block's variables.
func solve(ctx context.Context, p *Problem, opt Options, initial int, newRelaxation func(*lp.Problem) (relaxation, error)) (*Result, error) {
	n := p.LP.NumVars()
	if p.Integer != nil && len(p.Integer) != n {
		return nil, fmt.Errorf("ilp: Integer has length %d, want %d", len(p.Integer), n)
	}
	if err := p.LP.Validate(); err != nil {
		return nil, fmt.Errorf("%w: %v", lp.ErrBadProblem, err)
	}
	maxNodes, deadline := opt.MaxNodes, time.Time{}
	if maxNodes <= 0 {
		maxNodes = DefaultMaxNodes
	}
	if opt.TimeLimit > 0 {
		deadline = time.Now().Add(opt.TimeLimit)
	}
	var rx relaxation
	sense := 1.0 // internal(v) is v in the internal max sense
	if !p.LP.Maximize {
		sense = -1
	}
	internal := func(v float64) float64 { return sense * v }
	sc := scratchPool.Get().(*scratch)
	baseLo, baseHi := slices.Grow(sc.baseLo[:0], n)[:n], slices.Grow(sc.baseHi[:0], n)[:n]
	rootDJ, rootAt, slot := slices.Grow(sc.rootDJ[:0], n)[:n], slices.Grow(sc.rootAt[:0], n)[:n], slices.Grow(sc.slot[:0], n)[:n]
	lowNZ, cols, pkg, best, pick := sc.lowNZ[:0], sc.cols[:0], sc.pkg[:0], sc.best[:0], &sc.pick
	// The working set: inW marks it, cols lists it in ascending order; an
	// unsifted search, over at most 2·initial variables, holds them all.
	inW, sifted := slices.Grow(sc.inW[:0], n)[:n], n > 2*initial
	pick.reset(initial, math.Inf(1))
	defer func() {
		*sc = scratch{baseLo, baseHi, rootDJ, sc.xs, sc.tops, rootAt, inW, slot, lowNZ, cols, pkg, best, *pick}
		scratchPool.Put(sc)
	}()

	// Base bounds: the problem's, integral variables' tightened to integers
	// (and later by reduced-cost fixing). The same pass starts a sifted W:
	// the continuous and lower-unbounded variables join it, every movable
	// one is offered by its objective coefficient, lowNZ lists the others
	// with a lower bound not 0, and empty says a domain is.
	empty := false
	for j := 0; j < n; j++ {
		lo, hi := p.LP.Bounds(j)
		if p.integral(j) {
			lo, hi = math.Ceil(lo-intTol), math.Floor(hi+intTol)
		}
		baseLo[j], baseHi[j], slot[j] = lo, hi, 0
		if inW[j] = !sifted || !p.integral(j) || math.IsInf(lo, -1); inW[j] {
			cols = append(cols, j)
		} else if lo != 0 {
			lowNZ = append(lowNZ, j)
		}
		if empty = empty || lo > hi; sifted && hi > lo {
			pick.offer(j, -internal(p.LP.C[j]))
		}
	}
	// Column k of rx is variable cols[k], those outside W held at their
	// lower bounds adding offset to the objective. Nodes branch on columns;
	// bounds, incumbents and reduced costs speak of variables.
	width, offset := n, 0.0
	// chain lists the columns the relaxation's node branched on, with their
	// bounds there; slot[k]−1 is k's place in it, 0 for one at its base
	// bounds. baseDirty marks base bounds rx has not seen (all, at first).
	type branched struct {
		k      int
		lo, hi float64
	}
	chain, prev := make([]branched, 0, 32), make([]branched, 0, 32)
	baseDirty := true

	// solveNode moves the relaxation from the node it last solved to nd
	// by handing it only the bounds that differ — those of the two nodes'
	// branching chains, plus every column after the base bounds moved —
	// and re-optimizes (the root, with no basis to start from, cold); the
	// solution is read off rx until the next call. Walking up from nd meets
	// each column's tightest bounds first. A branching bound that conflicts
	// with reduced-cost fixing makes an empty domain, an infeasible node.
	solveNode := func(nd *node) (lp.Status, error) {
		prev, chain = chain, prev[:0]
		for _, b := range prev {
			slot[b.k] = 0
		}
		for cur := nd; cur.varIdx >= 0; cur = cur.parent {
			k := cur.varIdx
			if slot[k] == 0 {
				chain = append(chain, branched{k, baseLo[cols[k]], baseHi[cols[k]]})
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
		var err error
		set := func(k int, lo, hi float64) {
			if e := rx.SetBounds(k, lo, hi); err == nil {
				err = e
			}
		}
		for k := 0; k < width && baseDirty; k++ {
			if slot[k] == 0 {
				set(k, baseLo[cols[k]], baseHi[cols[k]])
			}
		}
		baseDirty = false
		for _, b := range prev {
			if slot[b.k] == 0 {
				set(b.k, baseLo[cols[b.k]], baseHi[cols[b.k]])
			}
		}
		for _, b := range chain {
			set(b.k, b.lo, b.hi)
		}
		if err != nil {
			return 0, err
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
		if res.HasIncumbent {
			res.Entries = slices.Clone(best) // best goes back to the pool
		}
		return res, nil
	}
	better := func(a, b float64) bool { return internal(a) > internal(b) }
	worst := internal(math.Inf(-1)) // the bound that is better than nothing

	// mostFractional returns the column of an integral variable whose LP
	// value is farthest from an integer — the lowest index within
	// branchTieTol of the farthest — or -1 if all are integral. Only basic
	// columns can be: an integral variable's bounds are integers.
	frac := func(x []float64, k int) float64 {
		if k >= width || !p.integral(cols[k]) {
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

	// Root information for reduced-cost fixing: the reduced costs (rootDJ),
	// and the bound (−1 lower, +1 upper, 0 neither) each sat at (rootAt).
	rootBoundInt := math.Inf(1) // root LP bound in internal max sense

	// fix fixes variable j for good if it sat at a bound of the root
	// relaxation and its reduced cost alone closes the incumbent gap: it can
	// never move in an improving solution — decisive on package-query ILPs,
	// whose near-substitutable tuples otherwise keep the tree alive. cutoff
	// is the least gap (less a tolerance) of any incumbent so far, so a
	// variable tested late is fixed just when an earlier test would have.
	// fix reports whether j may still leave its lower bound.
	cutoff := math.Inf(1)
	fix := func(j int) bool {
		dj, lo, hi := rootDJ[j], baseLo[j], baseHi[j]
		switch {
		case !res.HasIncumbent || !p.integral(j) || hi-lo < 1:
			return hi > lo
		case rootAt[j] < 0 && dj <= 0 && -dj >= cutoff:
			baseHi[j] = lo
		case rootAt[j] > 0 && dj >= 0 && dj >= cutoff:
			baseLo[j] = hi
		default:
			return true
		}
		baseDirty = true
		res.Retired++
		return false
	}

	// act is the row activity A·x of the point accept is looking at.
	m := p.LP.NumRows()
	act := make([]float64, m)

	// accept rounds an integral LP solution, x over the columns, into pkg:
	// its nonzero entries in ascending order, lowNZ's held ones included.
	// When rounding moved a value and a row no longer holds, it returns the
	// column farthest from an integer, to branch on, with its value before
	// rounding. Otherwise it improves the point by local search, installs it
	// if better (best keeps its entries), returns -1.
	accept := func(x []float64) (q int, v float64) {
		pkg = pkg[:0]
		q, far := -1, 0.0
		for k, xk := range x {
			j, xj := cols[k], xk
			if p.integral(j) {
				xj = math.Round(xk)
				if f := math.Abs(xk - xj); f > far {
					q, v, far = k, xk, f
				}
			}
			if xj != 0 {
				pkg = append(pkg, Entry{j, xj})
			}
		}
		for _, j := range lowNZ {
			if !inW[j] {
				pkg = append(pkg, Entry{j, baseLo[j]})
			}
		}
		slices.SortFunc(pkg, func(a, b Entry) int { return a.J - b.J }) // in order already, unless lowNZ added some
		// Sum over the package alone: a zero xⱼ's ±0 term moves no bit of a sum that is never −0.
		clear(act)
		for _, t := range pkg {
			for i, row := range p.LP.A {
				act[i] += row[t.J] * t.X
			}
		}
		for i := range act {
			if q >= 0 && !rowOK(&p.LP, i, act[i]) {
				return q, v
			}
		}
		if n <= localSearchMaxVars {
			sc.xs, sc.tops = slices.Grow(sc.xs[:0], n)[:n], slices.Grow(sc.tops[:0], blocks(n))[:blocks(n)]
			clear(sc.xs)
			for _, t := range pkg {
				sc.xs[t.J] = t.X
			}
			localSearch(p, sense, sc.xs, act, baseLo, baseHi, sc.tops)
			pkg = pkg[:0]
			for j, xj := range sc.xs {
				if xj != 0 {
					pkg = append(pkg, Entry{j, xj})
				}
			}
		}
		o := 0.0
		for _, t := range pkg {
			o += p.LP.C[t.J] * t.X
		}
		if res.HasIncumbent && !better(o, res.Objective) {
			return -1, 0
		}
		pkg, best = best, pkg
		res.HasIncumbent, res.Objective, res.Incumbents = true, o, res.Incumbents+1
		if opt.OnIncumbent != nil {
			opt.OnIncumbent(best, o, res.Nodes)
		}
		// Fix what the search sees: the columns, or every variable where
		// local search can move any; the rest are tested on joining W.
		cutoff = math.Min(cutoff, rootBoundInt-internal(o)-1e-7*(1+math.Abs(o)))
		for _, j := range cols[:width] {
			fix(j)
		}
		for j := 0; j < n && n <= localSearchMaxVars; j++ {
			fix(j)
		}
		return -1, 0
	}

	var arena nodeArena
	root := arena.new(node{varIdx: -1})
	h := &nodeHeap{nodes: make([]*node, 0, 64), maximize: p.LP.Maximize}

	// pruned reports whether a bound cannot beat the incumbent, within a
	// relative tolerance: at objectives of ~1e5 LP degeneracy noise exceeds
	// any absolute epsilon and would keep equal-bound nodes alive.
	pruned := func(bound float64) bool {
		z := res.Objective
		return res.HasIncumbent && (internal(bound) <= internal(z)+1e-7*(1+math.Abs(z)) ||
			opt.Gap > 0 && math.Abs(bound-z)/math.Max(1, math.Abs(z)) <= opt.Gap)
	}

	// branch takes the node just solved: an integral point goes to accept,
	// and otherwise — or when accept asks — it queues the far child and
	// returns the near one, where the LP value rounds to. Plunging into it
	// finds incumbents that best-first search alone can postpone for long.
	branch := func(nd *node) *node {
		q, v := mostFractional(), 0.0
		if q >= 0 {
			v = rx.X()[q]
		} else if q, v = accept(rx.X()); q < 0 {
			return nil
		}
		near := arena.new(node{parent: nd, varIdx: q, val: math.Floor(v), bound: nd.bound})
		far := arena.new(node{parent: nd, varIdx: q, val: math.Ceil(v), hasLo: true, bound: nd.bound})
		if v-math.Floor(v) > 0.5 {
			near, far = far, near
		}
		heap.Push(h, far)
		return near
	}

	// search runs branch and bound over rx from current, the node to solve
	// next, until the tree is exhausted, a budget runs out (limited), or —
	// with giveUp — width nodes pass without an incumbent, interleaving
	// best-first selection with plunges into the near child. It returns
	// the best bound of any node whose relaxation failed (lp.IterLimit):
	// that subtree was dropped, not refuted, so optimality is not proven.
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

	// take adds pick's choice to W and returns how many joined; left is how many stay out.
	left := 0
	take := func() int {
		k := len(cols)
		cols = pick.picked(cols)
		left = pick.seen - (len(cols) - k)
		for _, j := range cols[k:] {
			inW[j] = true
		}
		slices.Sort(cols)
		cols = slices.Compact(cols) // the first W's continuous variables may be picked too
		return len(cols) - k
	}
	// grow offers W every variable outside it that fix leaves movable, by
	// root |dⱼ|, up to size in all.
	grow := func(size int) int {
		pick.reset(size-len(cols), math.Inf(1))
		for j, in := range inW {
			if !in && fix(j) {
				pick.offer(j, math.Abs(rootDJ[j]))
			}
		}
		return take()
	}

	// enter makes rx the problem over W, every other variable held at its lower bound.
	enter := func() error {
		q := &lp.Problem{Maximize: p.LP.Maximize, Op: p.LP.Op, B: slices.Clone(p.LP.B), A: make([][]float64, m)}
		offset = 0
		for _, j := range lowNZ {
			if lo := baseLo[j]; !inW[j] {
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
		rx, width = next, k
		clear(slot[:k])
		return nil
	}

	// A sifted root, as solve's comment describes: each round prices every
	// variable into rootDJ, sense·cⱼ − y·Aⱼ (−y·Aⱼ after phase 1) over the
	// rows with yᵢ ≠ 0 in row order, and offers W the violating ones.
	take()
	st, err := lp.Infeasible, error(nil) // an empty domain is infeasible, as the kernel's count is
	for added := 1; sifted && !empty && added > 0; added = take() {
		if err = enter(); err != nil {
			break
		}
		res.RootRounds, res.RootColumns = res.RootRounds+1, width
		if st, err = solveNode(root); err != nil || st != lp.Optimal && st != lp.Infeasible {
			break
		}
		y := rx.Duals()
		pick.reset(initial, -optTol)
		for j, c := range p.LP.C {
			d := 0.0 // phase 1 prices the infeasibility alone
			if st == lp.Optimal {
				d = internal(c)
			}
			for i, yi := range y {
				if yi != 0 {
					d -= yi * p.LP.A[i][j]
				}
			}
			rootDJ[j], rootAt[j] = d, -1 // at the lower bound, unless in W
			if !inW[j] && baseHi[j] > baseLo[j] {
				pick.offer(j, -d)
			}
		}
	}
	if !sifted {
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
		j := cols[k]
		rootDJ[j], rootAt[j] = rx.DJ()[k], 0
		switch {
		case math.Abs(v-baseLo[j]) < 1e-7:
			rootAt[j] = -1
		case math.Abs(v-baseHi[j]) < 1e-7:
			rootAt[j] = 1
		}
	}

	lost := worst
	if !sifted {
		lost, err = search(branch(root), false)
	} else if mostFractional() >= 0 || branch(root) != nil {
		// Rounds, as solve's comment describes (after an integral root whose
		// rounding breaks a row too). The basis is not read: a degenerate basic
		// rests on its lower bound, dⱼ = 0, so grow takes it in by index.
		cols = slices.DeleteFunc(cols, func(j int) bool { // marking what stays
			inW[j] = rootAt[j] >= 0 || !p.integral(j)
			return !inW[j]
		})
		grow(initial)
		for err = enter(); err == nil; err = enter() {
			res.Rounds, res.WorkingSet = res.Rounds+1, width
			h.nodes = h.nodes[:0] // what the last round left open
			lost, err = search(arena.new(node{varIdx: -1, bound: root.bound}), left > 0)
			size := 2 * width
			if res.HasIncumbent {
				size = n
			}
			if err != nil || limited || grow(size) == 0 {
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
		for j, in := range inW {
			if b := internal(rootBoundInt - math.Abs(rootDJ[j])); !in && fix(j) && better(b, res.BestBound) {
				res.BestBound = b
			}
		}
		return done(ResourceLimit)
	case !res.HasIncumbent:
		return done(Infeasible)
	}
	return done(Optimal)
}

// rowOK reports whether row i of q holds at activity v.
func rowOK(q *lp.Problem, i int, v float64) bool {
	switch q.Op[i] {
	case lp.LE:
		return v <= q.B[i]+rowTol
	case lp.GE:
		return v >= q.B[i]-rowTol
	}
	return math.Abs(v-q.B[i]) <= rowTol
}

// localSearchMaxVars bounds the problems local search runs on: above it
// the pair scan would dominate the search.
const localSearchMaxVars = 4000

// swapBlock is how many variables, consecutive in index order, share a
// top in local search's pair scan; n variables make blocks(n) blocks.
const swapBlock = 64

func blocks(n int) int { return (n + swapBlock - 1) / swapBlock }

// localSearch improves x, an integral solution of p whose row activity
// is act, within the bounds lo, hi, by unit swaps from variable a to b
// that improve the objective (sense +1 maximizes, −1 minimizes) and keep
// every row: on near-substitutable tuples they routinely lift plunge
// incumbents to (near-)optimal, so pruning and fixing finish the search.
// tops holds, for each block of swapBlock variables, the best sense·cⱼ of
// its integral ones with room to rise; a's scan skips a block whose top
// does not beat sense·cₐ by 1e-12 — rounding is monotone, so none of its
// variables would — and reads only the others' variables. Each swap
// refreshes the two blocks it touched. feasibleAfter asks the row that
// refused the last candidate first.
func localSearch(p *Problem, sense float64, x, act, lo, hi, tops []float64) {
	n, m, c := len(x), len(act), p.LP.C
	refresh := func(k int) {
		tops[k] = math.Inf(-1)
		for j := k * swapBlock; j < min(n, (k+1)*swapBlock); j++ {
			if p.integral(j) && x[j] < hi[j]-1e-9 {
				tops[k] = math.Max(tops[k], sense*c[j])
			}
		}
	}
	for k := range tops {
		refresh(k)
	}
	last := 0
	feasibleAfter := func(a, b int) bool {
		for r := range m {
			if i := (last + r) % m; !rowOK(&p.LP, i, act[i]-p.LP.A[i][a]+p.LP.A[i][b]) {
				last = i
				return false
			}
		}
		return true
	}
	for pass, improved := 0, true; pass < 4 && improved; pass++ {
		improved = false
		for a := 0; a < n; a++ {
			if !p.integral(a) || x[a] <= lo[a]+1e-9 {
				continue
			}
		scan:
			for k := range tops {
				if tops[k]-sense*c[a] <= 1e-12 {
					continue
				}
				for b := k * swapBlock; b < min(n, (k+1)*swapBlock); b++ {
					if b == a || !p.integral(b) || x[b] >= hi[b]-1e-9 || sense*(c[b]-c[a]) <= 1e-12 || !feasibleAfter(a, b) {
						continue
					}
					x[a]--
					x[b]++
					for i := 0; i < m; i++ {
						act[i] += p.LP.A[i][b] - p.LP.A[i][a]
					}
					refresh(a / swapBlock)
					refresh(k)
					if improved = true; x[a] <= lo[a]+1e-9 {
						break scan
					}
				}
			}
		}
	}
}

// picker chooses on the one pass that offers it the candidates, in
// ascending index order, k with the smallest keys below cut: with t the
// k-th smallest, every one below t less a band of branchTieTol·(1+|t|),
// then the lowest indices within the band, so W is a function of the
// problem and not of the pivot path. It keeps the k smallest keys in a
// heap, and only candidates not two bands above the heap's largest.
type picker struct {
	k, seen, next int
	cut, lim      float64
	top           kHeap
	cand          []int
	val           []float64
}

func (s *picker) reset(k int, cut float64) {
	*s = picker{k: max(k, 0), next: 4 * max(k, 16), cut: cut, lim: math.Inf(1), top: s.top[:0], cand: s.cand[:0], val: s.val[:0]}
}

func (s *picker) offer(j int, v float64) {
	if !(v < s.cut) {
		return
	}
	if s.seen++; s.k == 0 || v > s.lim {
		return
	}
	if s.top.push(v, s.k) {
		s.lim = s.top[0] + 2*branchTieTol*(1+math.Abs(s.top[0]))
	}
	if s.cand, s.val = append(s.cand, j), append(s.val, v); len(s.val) < s.next {
		return
	}
	kept := 0
	for c, v := range s.val {
		if !(v > s.lim) {
			s.cand[kept], s.val[kept] = s.cand[c], v
			kept++
		}
	}
	s.cand, s.val, s.next = s.cand[:kept], s.val[:kept], max(s.next, 2*kept)
}

// picked appends the picked candidates to dst in ascending index order.
func (s *picker) picked(dst []int) []int {
	t, band := math.Inf(1), 0.0
	if 0 < s.k && s.k < s.seen {
		t = s.top[0]
		band = branchTieTol * (1 + math.Abs(t))
	}
	inBand := s.k // the places left once every key below the band is in
	for _, v := range s.val {
		if v < t-band {
			inBand--
		}
	}
	for c, v := range s.val {
		if below := v < t-band; below || v <= t+band && inBand > 0 {
			if !below {
				inBand--
			}
			dst = append(dst, s.cand[c])
		}
	}
	return dst
}

// kHeap is a max-heap of the k smallest values pushed: h[0] is the k-th
// smallest once k are in, and a later value costs one comparison.
type kHeap []float64

// push adds x and reports whether the heap holds k values.
func (h *kHeap) push(x float64, k int) bool {
	q := *h
	if len(q) < k {
		q = append(q, x)
		for i := len(q) - 1; i > 0 && q[(i-1)/2] < q[i]; i = (i - 1) / 2 {
			q[i], q[(i-1)/2] = q[(i-1)/2], q[i]
		}
	} else if x < q[0] {
		q[0] = x
		for i, c := 0, 1; c < k; i, c = c, 2*c+1 {
			if c+1 < k && q[c+1] > q[c] {
				c++
			}
			if q[i] >= q[c] {
				break
			}
			q[i], q[c] = q[c], q[i]
		}
	}
	*h = q
	return len(q) == k
}
