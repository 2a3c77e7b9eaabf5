// Package ilp implements a branch-and-bound integer linear program solver
// on top of the simplex in internal/lp.
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
}

const intTol = 1e-6

type node struct {
	bound  float64 // LP relaxation objective (in the problem's own sense)
	depth  int
	parent *node
	// Bound change introduced by this node relative to parent (root has
	// varIdx < 0).
	varIdx  int
	newLo   float64
	newHi   float64
	hasLo   bool
	heapIdx int
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
func (h *nodeHeap) Swap(i, j int) {
	h.nodes[i], h.nodes[j] = h.nodes[j], h.nodes[i]
	h.nodes[i].heapIdx = i
	h.nodes[j].heapIdx = j
}
func (h *nodeHeap) Push(x any) {
	n := x.(*node)
	n.heapIdx = len(h.nodes)
	h.nodes = append(h.nodes, n)
}
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

	// Scratch bound arrays reused across nodes.
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
		// Integral variables can have their bounds tightened to integers
		// immediately.
		if p.integral(j) {
			lo = math.Ceil(lo - intTol)
			if !math.IsInf(hi, 1) {
				hi = math.Floor(hi + intTol)
			}
		}
		baseLo[j], baseHi[j] = lo, hi
	}
	scratchLo := make([]float64, n)
	scratchHi := make([]float64, n)

	// materialize fills scratch bounds for a node by walking its chain.
	materialize := func(nd *node) ([]float64, []float64) {
		copy(scratchLo, baseLo)
		copy(scratchHi, baseHi)
		for cur := nd; cur != nil && cur.varIdx >= 0; cur = cur.parent {
			if cur.hasLo {
				if cur.newLo > scratchLo[cur.varIdx] {
					scratchLo[cur.varIdx] = cur.newLo
				}
			} else {
				if cur.newHi < scratchHi[cur.varIdx] {
					scratchHi[cur.varIdx] = cur.newHi
				}
			}
		}
		return scratchLo, scratchHi
	}

	relax := p.LP // shallow copy; Lo/Hi replaced per node
	res := &Result{}
	better := func(a, b float64) bool {
		if p.LP.Maximize {
			return a > b
		}
		return a < b
	}

	solveNode := func(nd *node) (*lp.Solution, error) {
		lo, hi := materialize(nd)
		// Branching bounds can conflict with bounds tightened later by
		// reduced-cost fixing; an empty domain just means the node is
		// infeasible.
		for j := 0; j < n; j++ {
			if lo[j] > hi[j] {
				return &lp.Solution{Status: lp.Infeasible}, nil
			}
		}
		relax.Lo, relax.Hi = lo, hi
		sol, err := lp.SolveCtx(ctx, &relax)
		if err != nil {
			return nil, err
		}
		res.LPIterations += sol.Iterations
		return sol, nil
	}

	// mostFractional returns the index of the integral variable whose LP
	// value is farthest from an integer, or -1 if all are integral.
	mostFractional := func(x []float64) int {
		best, bestFrac := -1, intTol
		for j := 0; j < n; j++ {
			if !p.integral(j) {
				continue
			}
			f := math.Abs(x[j] - math.Round(x[j]))
			if f > bestFrac {
				best, bestFrac = j, f
			}
		}
		return best
	}

	// Root information for reduced-cost variable fixing.
	var rootX, rootDJ []float64
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
		if rootDJ == nil || !res.HasIncumbent {
			return
		}
		slack := rootBoundInt - internal(res.Objective)
		tol := 1e-7 * (1 + math.Abs(res.Objective))
		for j := 0; j < n; j++ {
			if !p.integral(j) || baseHi[j]-baseLo[j] < 1 {
				continue
			}
			dj := rootDJ[j]
			if math.Abs(rootX[j]-baseLo[j]) < 1e-7 && dj <= 0 && -dj >= slack-tol {
				baseHi[j] = baseLo[j]
			} else if !math.IsInf(baseHi[j], 1) && math.Abs(rootX[j]-baseHi[j]) < 1e-7 && dj >= 0 && dj >= slack-tol {
				baseLo[j] = baseHi[j]
			}
		}
	}

	// localSearch improves an integral solution by unit swaps: move one
	// unit from variable a to variable b when that improves the
	// objective and keeps every constraint satisfied. Package queries
	// are full of near-substitutable tuples, so swap improvement
	// routinely lifts plunge incumbents to (near-)optimal, which lets
	// bound pruning and reduced-cost fixing finish the search. Skipped
	// for very large problems where the pair scan would dominate.
	const localSearchMaxVars = 4000
	lsAct := make([]float64, p.LP.NumRows()) // reused across incumbents
	localSearch := func(x []float64) {
		if n > localSearchMaxVars {
			return
		}
		m := p.LP.NumRows()
		act := lsAct
		for i := 0; i < m; i++ {
			act[i] = 0
		}
		for i := 0; i < m; i++ {
			for j := 0; j < n; j++ {
				act[i] += p.LP.A[i][j] * x[j]
			}
		}
		feasibleAfter := func(a, b int) bool {
			for i := 0; i < m; i++ {
				v := act[i] - p.LP.A[i][a] + p.LP.A[i][b]
				switch p.LP.Op[i] {
				case lp.LE:
					if v > p.LP.B[i]+1e-7 {
						return false
					}
				case lp.GE:
					if v < p.LP.B[i]-1e-7 {
						return false
					}
				case lp.EQ:
					if math.Abs(v-p.LP.B[i]) > 1e-7 {
						return false
					}
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

	// accept installs an integral LP solution as the incumbent if better.
	accept := func(x []float64, obj float64) {
		xi := make([]float64, n)
		copy(xi, x)
		for j := 0; j < n; j++ {
			if p.integral(j) {
				xi[j] = math.Round(xi[j])
			}
		}
		localSearch(xi)
		o := 0.0
		for j := 0; j < n; j++ {
			o += p.LP.C[j] * xi[j]
		}
		if !res.HasIncumbent || better(o, res.Objective) {
			res.HasIncumbent = true
			res.X = xi
			res.Objective = o
			res.Incumbents++
			if opt.OnIncumbent != nil {
				cp := make([]float64, len(xi))
				copy(cp, xi)
				opt.OnIncumbent(cp, o, res.Nodes)
			}
			fixByReducedCost()
		}
	}

	root := &node{varIdx: -1}
	rootSol, err := solveNode(root)
	if err != nil {
		return nil, err
	}
	switch rootSol.Status {
	case lp.Infeasible:
		res.Status = Infeasible
		return res, nil
	case lp.Unbounded:
		res.Status = Unbounded
		return res, nil
	case lp.IterLimit:
		res.Status = ResourceLimit
		return res, nil
	}
	root.bound = rootSol.Objective
	rootX = rootSol.X
	rootDJ = rootSol.DJ
	rootBoundInt = internal(rootSol.Objective)

	h := &nodeHeap{maximize: p.LP.Maximize}
	heap.Init(h)

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

	// branch creates the two children of a solved fractional node and
	// returns (nearChild, farChild), where near is the child on the side
	// the LP value rounds to — diving into it first (plunging) finds
	// integral incumbents quickly, which best-first search alone can
	// postpone almost indefinitely on knapsack-like package queries.
	branch := func(nd *node, sol *lp.Solution, q int) (*node, *node) {
		v := sol.X[q]
		down := &node{parent: nd, depth: nd.depth + 1, varIdx: q, newHi: math.Floor(v), bound: sol.Objective}
		up := &node{parent: nd, depth: nd.depth + 1, varIdx: q, newLo: math.Ceil(v), hasLo: true, bound: sol.Objective}
		if v-math.Floor(v) <= 0.5 {
			return down, up
		}
		return up, down
	}

	// The search interleaves best-first selection from the heap with
	// depth-first plunges: after branching, the near child is solved
	// immediately and the far child is queued.
	var current *node
	if q := mostFractional(rootSol.X); q < 0 {
		accept(rootSol.X, rootSol.Objective)
	} else {
		near, far := branch(root, rootSol, q)
		heap.Push(h, far)
		current = near
	}

	res.BestBound = root.bound
	limited := false
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
		sol, err := solveNode(nd)
		if err != nil {
			return nil, err
		}
		switch sol.Status {
		case lp.Infeasible:
			continue
		case lp.IterLimit:
			continue // treat as un-exploitable node
		case lp.Unbounded:
			// A bounded parent relaxation cannot become unbounded by
			// tightening bounds; defensive skip.
			continue
		}
		nd.bound = sol.Objective
		if pruned(nd.bound) {
			continue
		}
		q := mostFractional(sol.X)
		if q < 0 {
			accept(sol.X, sol.Objective)
			continue
		}
		near, far := branch(nd, sol, q)
		heap.Push(h, far)
		current = near // plunge
	}

	if limited {
		res.Status = ResourceLimit
		return res, nil
	}
	if !res.HasIncumbent {
		res.Status = Infeasible
		return res, nil
	}
	res.Status = Optimal
	res.BestBound = res.Objective
	return res, nil
}
