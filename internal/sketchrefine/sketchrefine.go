// Package sketchrefine implements SKETCHREFINE (Section 4 of the paper):
// the scalable, divide-and-conquer evaluation strategy for package
// queries. Using an offline partitioning of the input relation into
// groups of similar tuples, the algorithm
//
//  1. SKETCHes an initial package over the (small) representative
//     relation, with per-group count caps |Gⱼ|·(K+1) standing in for the
//     REPEAT bound (Section 4.2.1);
//  2. REFINEs the sketch one group at a time, replacing each group's
//     representatives with original tuples by solving a small ILP whose
//     right-hand sides are adjusted by the aggregates of everything
//     already placed (Section 4.2.2, Algorithm 2), greedily backtracking
//     — prioritizing failed groups — when a refinement is infeasible;
//  3. falls back to the hybrid sketch query (Section 4.4 #1) when the
//     plain sketch is infeasible, and reports
//     ErrFalseInfeasible when refinement fails outright.
//
// Every subproblem is solved with the same black-box ILP solver DIRECT
// uses, so the two strategies are directly comparable.
//
// The partitioning is read as the offline index it is (Section 4.1): a
// query's eligible tuples come group by group from the member lists it
// already holds (eligibleByGroup) — shared as they are when nothing
// filters, one predicate pass over them otherwise — never from a scan of
// the relation, and row i of the representative relation is group i's.
// What a view fixes is built once per view: an unfiltered query's layout
// is the view's own (partition.Partitioning.Members), shared by every
// statement over it, and a filtered query's pass is paid once per view and
// statement — its caller may keep the result as a Layout (Options.Layout),
// row ids keyed on the view's serial, and later evaluations over the same
// view reuse it. An unfiltered query's refine over a group reads the
// group's cells the same way, once per view: from the view's contiguous
// group columns (partition.Partitioning.GroupColumn), not gathered from
// the snapshot; a sketch over every group reads R̃'s own columns.
//
// Outside its ILPs an evaluation's bookkeeping follows the package, not
// the group count: the unrefined representatives are a short list sorted
// by gid, and a seeded refinement order is a permutation computed once per
// (seed, size) and then only applied.
package sketchrefine

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/ilp"
	"repro/internal/obs"
	"repro/internal/partition"
	"repro/internal/relation"
)

// Options configures SketchRefine.
type Options struct {
	// Solver configures the per-subproblem ILP budgets.
	Solver ilp.Options
	// HybridSketch is ignored: an infeasible sketch always falls back to
	// the hybrid sketch of Section 4.4. The field stays only for the
	// benchmark harness, which still sets it.
	HybridSketch bool
	// Seed, when nonzero, shuffles the initial refinement order
	// (Algorithm 2 starts from an arbitrary order) as Shuffle on a fresh
	// math/rand generator seeded here would (refineOrder). Equal seeds
	// give equal orders, every evaluation is reproducible, and a seed can
	// be shared across concurrent evaluations safely. Zero keeps the
	// deterministic ascending group order.
	Seed int64
	// OnIncumbent, when non-nil, receives every improving incumbent of
	// every ILP subproblem (sketch, hybrid sketch, and refine solves) as
	// it is found, turning the evaluation into an anytime
	// computation. Incumbents are tagged with their subproblem number;
	// sketch and hybrid-sketch incumbents have Sketch set (their rows —
	// when present — index the representative relation, not the input).
	// The callback runs synchronously on the solving goroutine.
	OnIncumbent core.IncumbentFunc
	// Layout, when non-nil, is the caller's memo of a filtered spec's
	// eligible rows. A layout laid out over this very partitioning view
	// (equal Serial) is reused as it is; otherwise the rows are laid out
	// afresh and replace it. Every evaluation through one memo must be of
	// one spec (its relation may be rebound to any snapshot). An
	// unfiltered spec never fills it: it reads the view's own layout of
	// the member lists (partition.Partitioning.Members), which every
	// statement over the view shares. Nil lays a filtered spec's rows out
	// on every call.
	Layout *atomic.Pointer[Layout]
}

// Layout is a filtered spec's eligible rows laid out along one partitioning
// view: what eligibleByGroup returns, read-only, with the view's serial. It
// holds row ids only — never the view or the snapshot it was bound to — so
// a memo of it keeps nothing else alive. An unfiltered spec's layout is
// the view's (partition.Partitioning.Members), kept by the view itself.
type Layout struct {
	view uint64
	rows [][]int
	gids []int
	n    int
}

// DefaultMaxBacktracks bounds the total number of backtracking steps
// across the refinement search.
const DefaultMaxBacktracks = 1000

// ErrFalseInfeasible is reported when SketchRefine cannot find a package.
// Per Theorem 4 the query is usually genuinely infeasible, but this may
// be false infeasibility; callers can retry over a different partitioning
// or with DIRECT.
var ErrFalseInfeasible = errors.New("sketchrefine: no package found (query infeasible, or false infeasibility — see Section 4.4)")

// state is the partial package during refinement: tuples already chosen
// for refined groups plus the representatives of the rest. It is never
// written once made; a refine makes the next one.
type state struct {
	rows []int // chosen tuple rows (refined groups)
	mult []int
	// reps are the unrefined groups' representatives, one per group the
	// package holds, ascending by gid: an ILP's entries come out in
	// ascending variable order over ascending gids.
	reps []rep
}

// rep is one unrefined group's representative and its multiplicity.
type rep struct{ gid, mult int }

// repMult is group gid's representative multiplicity, 0 when the state
// holds none for it.
func (s *state) repMult(gid int) int {
	i, ok := slices.BinarySearchFunc(s.reps, gid, func(r rep, gid int) int { return cmp.Compare(r.gid, gid) })
	if !ok {
		return 0
	}
	return s.reps[i].mult
}

// refined is the state with group gid's representatives replaced by the
// tuples rows at multiplicities mult.
func (s *state) refined(gid int, rows, mult []int) *state {
	next := &state{
		rows: slices.Concat(s.rows, rows),
		mult: slices.Concat(s.mult, mult),
		reps: make([]rep, 0, len(s.reps)),
	}
	for _, r := range s.reps {
		if r.gid != gid {
			next.reps = append(next.reps, r)
		}
	}
	return next
}

// evaluator carries the immutable evaluation context.
type evaluator struct {
	ctx      context.Context
	spec     *core.Spec
	part     *partition.Partitioning
	reps     *relation.Relation // part's R̃, read once per evaluation
	opt      Options
	stats    *core.EvalStats
	eligible [][]int // gid → base rows in that group, ascending
	gids     []int   // gids with eligible rows, ascending
	// viewCells: eligible[gid] is group gid's whole member list and the
	// partitioning is a View, so a refine reads the view's group columns.
	viewCells bool

	backtracks int
}

// eligibleByGroup lays the spec's base relation — the tuples passing its
// WHERE predicate and every MIN/MAX restriction — out along part: rows[gid]
// are group gid's eligible rows, gids the groups that have any, n their
// total. Member lists are ascending, so every group's rows come out in the
// order a scan of the relation would give; they are not checked against
// the relation's tombstones (see EvaluateCtx). When nothing filters, it is
// the partitioning's own layout of its member lists
// (partition.Partitioning.Members): rows[gid] is the member slice itself,
// shared read-only — maintenance writes in place only lists no view holds,
// see partition.Partitioning.View — and a view lays it out once, for every
// statement over it. Otherwise — filtered — rows[gid] is a fresh slice of
// exactly what passed the filter's selection, bound once and run over each
// member list. Those slices are never written after they are returned, so
// a Layout may keep them, and any number of later evaluations over the
// same view may share them.
func eligibleByGroup(spec *core.Spec, part *partition.Partitioning) (rows [][]int, gids []int, n int, filtered bool) {
	pred := spec.Filter()
	if pred == nil {
		rows, gids, n, _ = part.Members()
		return rows, gids, n, false
	}
	rows = make([][]int, len(part.Groups))
	gids = make([]int, 0, len(part.Groups))
	sel := pred.Bind(spec.Rel)
	largest := 0
	for _, g := range part.Groups {
		largest = max(largest, len(g.Rows))
	}
	passed := make([]int, largest) // one group's, before it is copied out at its own length
	for gid := range part.Groups {
		passed = sel(part.Groups[gid].Rows, passed)
		if len(passed) == 0 {
			continue
		}
		rows[gid] = slices.Clone(passed)
		gids = append(gids, gid)
		n += len(passed)
	}
	return rows, gids, n, true
}

// subproblem numbers the next ILP solve in evaluation order — the solves
// already accounted in ev.stats, since every caller adds its solve's
// stats before the next one starts. It returns ctx tagged so that
// solve's "ilp" span records the number, and the hook that tags the
// solve's forwarded incumbents with the same number and the sketch flag
// (nil when no caller is listening).
func (ev *evaluator) subproblem(ctx context.Context, sketch bool) (context.Context, core.IncumbentFunc) {
	sub := ev.stats.Subproblems
	ctx = core.WithSubproblem(ctx, sub)
	fn := ev.opt.OnIncumbent
	if fn == nil {
		return ctx, nil
	}
	return ctx, func(inc core.Incumbent) {
		inc.Subproblem = sub
		inc.Sketch = sketch
		fn(inc)
	}
}

// EvaluateCtx runs SketchRefine on a compiled query over a partitioned
// relation. The partitioning must have been built on (a restriction of)
// spec.Rel and maintained through every delete since: its member lists
// are taken as they are, so they must hold only rows live in spec.Rel. It
// returns the package, accumulated statistics, and
// ErrFalseInfeasible when no package is found. Cancellation or a context
// deadline aborts the evaluation — between refinement steps and inside
// any in-flight ILP solve — and returns the context's error.
func EvaluateCtx(ctx context.Context, spec *core.Spec, part *partition.Partitioning, opt Options) (*core.Package, *core.EvalStats, error) {
	stats := &core.EvalStats{}
	// Identity + version equality, not pointer equality: a solve pinned
	// to a relation snapshot runs against a partitioning view whose Rel
	// is a (possibly different) snapshot of the same dataset at the same
	// version — the row indices line up exactly.
	if part.Rel.Identity() != spec.Rel.Identity() || part.Rel.Version() != spec.Rel.Version() {
		return nil, stats, fmt.Errorf("sketchrefine: partitioning was built over a different relation")
	}
	// Sub-problems accept budget-limited incumbents: SketchRefine's
	// guarantees need feasible sub-solutions, not proofs of optimality,
	// and a refine query that times out with a usable package should
	// degrade quality rather than fail the whole evaluation.
	opt.Solver.AcceptIncumbent = true
	ev := &evaluator{ctx: ctx, spec: spec, part: part, reps: part.Representatives(), opt: opt, stats: stats}
	_, psp := obs.Start(ctx, "prepare")
	err := ev.prepare(psp)
	psp.Finish()
	if err != nil {
		return nil, stats, err
	}
	if len(ev.gids) == 0 {
		return nil, stats, core.ErrInfeasible
	}

	st, err := ev.sketch()
	if err != nil {
		if errors.Is(err, core.ErrInfeasible) {
			st, err = ev.hybridSketch()
		}
		if err != nil {
			if errors.Is(err, core.ErrInfeasible) {
				err = ErrFalseInfeasible
			}
			return nil, stats, err
		}
	}

	// The refinement phase gets one umbrella span; per-group solves
	// attach beneath it through ev.ctx.
	rctx, rsp := obs.Start(ctx, "refine")
	saved := ev.ctx
	ev.ctx = rctx
	final, err := ev.refine(st)
	ev.ctx = saved
	rsp.SetAttrInt("backtracks", int64(ev.backtracks))
	rsp.Finish()
	if err != nil {
		if errors.Is(err, errRefineFailed) {
			err = ErrFalseInfeasible
		}
		return nil, stats, err
	}
	pkg, err := core.NewPackage(spec.Rel, final.rows, final.mult)
	if err != nil {
		return nil, stats, err
	}
	return pkg, stats, nil
}

// prepare lays the query's eligible rows out by group — or reuses a
// layout of them over this view: the view's own when nothing filters, the
// memo's otherwise — and checks that every coefficient evaluates on the
// input relation, so that one which does not fails with DIRECT's error
// rather than the sketch's over R̃. sp, its span, records how many rows,
// whether a filter was applied and whether the layout was reused. Over a
// view whose layout is already laid out, an unfiltered prepare allocates
// nothing.
func (ev *evaluator) prepare(sp *obs.Span) error {
	var n int
	var reused bool
	view, filtered := ev.part.Serial(), ev.spec.Filter() != nil
	if !filtered {
		ev.eligible, ev.gids, n, reused = ev.part.Members()
	} else {
		// Serial 0 (a head, a restricted view) names no layout.
		memo := ev.opt.Layout
		keep := memo != nil && view != 0
		var l *Layout
		if keep {
			l = memo.Load()
		}
		if reused = l != nil && l.view == view; !reused {
			l = &Layout{view: view}
			l.rows, l.gids, l.n, _ = eligibleByGroup(ev.spec, ev.part)
			if keep {
				memo.Store(l)
			}
		}
		ev.eligible, ev.gids, n = l.rows, l.gids, l.n
	}
	ev.viewCells = !filtered && view != 0
	sp.SetAttrInt("groups", int64(len(ev.gids)))
	sp.SetAttrInt("eligible_rows", int64(n))
	sp.SetAttrBool("filtered", filtered)
	sp.SetAttrBool("reused", reused)
	return ev.spec.Validate()
}

// groupCap returns the sketch count cap for a group: |Gⱼ ∩ base|·(K+1),
// or +Inf without a REPEAT bound.
func (ev *evaluator) groupCap(gid int) float64 {
	if ev.spec.Repeat < 0 {
		return math.Inf(1)
	}
	return float64(len(ev.eligible[gid]) * (ev.spec.Repeat + 1))
}

// sketchColumns describes the given groups' representatives as the
// columns of a sketch query: the query over R̃ — whose candidate rows are
// the gids themselves, one row of R̃ per group in gid order — and the
// per-group count caps. Over every group (the gids are then R̃'s rows in
// order) the query reads R̃'s cells as they are (repCells); over fewer it
// gathers them.
func (ev *evaluator) sketchColumns(gids []int) (spec *core.Spec, caps []float64) {
	caps = make([]float64, len(gids))
	for i, gid := range gids {
		caps[i] = ev.groupCap(gid)
	}
	spec = &core.Spec{
		Rel:         ev.reps,
		Repeat:      -1, // repetition is governed by the per-group caps
		Constraints: ev.spec.Constraints,
		Objective:   ev.spec.Objective,
	}
	if len(gids) == ev.reps.Len() {
		spec.Cells = ev.repCells
	}
	return spec, caps
}

// repCells serves a sketch over every group R̃'s own cells: a Float
// column of R̃ is the candidate rows' cells in order, aliased — R̃ is never
// written once built — and COUNT's row of ones is the view's. A column of
// another type (R̃'s gid), or the ones of a partitioning that keeps none,
// is gathered.
func (ev *evaluator) repCells(col int) []float64 {
	if col >= 0 {
		if cells := ev.reps.FloatColumn(col); cells != nil {
			return cells
		}
	} else if ones := ev.part.RepresentativeOnes(); ones != nil {
		return ones
	}
	return ev.reps.Cells(col, ev.gids)
}

// sketch solves the sketch query Q[R̃] over the representative tuples,
// returning the initial sketch state.
func (ev *evaluator) sketch() (*state, error) {
	ctx, sp := obs.Start(ev.ctx, "sketch")
	defer sp.Finish()
	sp.SetAttrInt("groups", int64(len(ev.gids)))
	sketchSpec, caps := ev.sketchColumns(ev.gids)
	ctx, hook := ev.subproblem(ctx, true)
	pkg, st, err := core.Solve(ctx, sketchSpec, ev.gids, caps, ev.opt.Solver, hook)
	ev.stats.Add(st)
	if err != nil {
		return nil, err
	}
	out := &state{reps: make([]rep, len(pkg.Rows))}
	for k, gid := range pkg.Rows {
		out.reps[k] = rep{gid, pkg.Mult[k]}
	}
	return out, nil
}

// errRefineFailed signals that the greedy backtracking search was
// exhausted without completing the package.
var errRefineFailed = errors.New("sketchrefine: refinement failed")

// contributions computes, for every constraint, the aggregate
// contribution of the partial state excluding group skipGID's
// representatives, term by term in order: the refined tuples over the
// input relation, then the representatives over R̃ (whose row i is gid i).
func (ev *evaluator) contributions(st *state, skipGID int) ([]float64, error) {
	// Representatives in ascending gid order, as the state holds them:
	// floating-point addition is order-sensitive, and any other order
	// would make the adjusted RHS — and with it the refine solutions —
	// differ between otherwise identical runs.
	gids, mult := make([]int, 0, len(st.reps)), make([]int, 0, len(st.reps))
	for _, r := range st.reps {
		if r.gid != skipGID && r.mult != 0 {
			gids, mult = append(gids, r.gid), append(mult, r.mult)
		}
	}
	out := make([]float64, len(ev.spec.Constraints))
	for ci, c := range ev.spec.Constraints {
		v, err := core.Weighted(0, c.Coef, ev.spec.Rel, st.rows, st.mult)
		if err == nil {
			v, err = core.Weighted(v, c.Coef, ev.reps, gids, mult)
		}
		if err != nil {
			return nil, fmt.Errorf("sketchrefine: constraint %q: %w", c, err)
		}
		out[ci] = v
	}
	return out, nil
}

// refineGroup solves the refine query Q[Gⱼ]: choose original tuples from
// group gid to replace its representatives, with every constraint's RHS
// reduced by the rest of the partial package (p̄ⱼ in the paper). Its span
// records where the ILP's cells came from (cells: view or relation) and
// how many group columns this refine filled.
func (ev *evaluator) refineGroup(st *state, gid int) (*state, error) {
	ctx, sp := obs.Start(ev.ctx, "refine_group")
	defer sp.Finish()
	sp.SetAttrInt("gid", int64(gid))
	sp.SetAttrInt("eligible", int64(len(ev.eligible[gid])))
	sub := &core.Spec{
		Rel:       ev.spec.Rel,
		Repeat:    ev.spec.Repeat,
		Objective: ev.spec.Objective,
	}
	rest, err := ev.contributions(st, gid)
	if err != nil {
		return nil, err
	}
	for ci, c := range ev.spec.Constraints {
		sub.Constraints = append(sub.Constraints, core.Constraint{
			Coef: c.Coef,
			Op:   c.Op,
			RHS:  c.RHS - rest[ci],
			Desc: c.Desc,
		})
	}
	// A group refined whole reads its cells from the view: contiguous,
	// and copied out of the snapshot only by the first refine to ask.
	source, filled := "relation", 0
	if ev.viewCells {
		source = "view"
		sub.Cells = func(col int) []float64 {
			cells, fresh := ev.part.GroupColumn(gid, col)
			if fresh {
				filled++
			}
			return cells
		}
	}
	ctx, hook := ev.subproblem(ctx, false)
	pkg, stats, err := core.Solve(ctx, sub, ev.eligible[gid], nil, ev.opt.Solver, hook)
	sp.SetAttrStr("cells", source)
	sp.SetAttrInt("columns_filled", int64(filled))
	ev.stats.Add(stats)
	if err != nil {
		return nil, err
	}
	return st.refined(gid, pkg.Rows, pkg.Mult), nil
}

// refine implements Algorithm 2: traverse the search tree of group
// orders, refining one group per level, skipping groups whose
// representatives dropped out, failing upward on infeasible refine
// queries, and prioritizing failed groups on retry.
func (ev *evaluator) refine(st *state) (*state, error) {
	final, _, err := ev.refineRec(st, ev.initialOrder(st), true, DefaultMaxBacktracks)
	return final, err
}

// initialOrder returns the unrefined groups in the starting order:
// ascending, or with a seed, shuffled by the seed's permutation.
func (ev *evaluator) initialOrder(st *state) []int {
	order := make([]int, len(st.reps))
	perm := refineOrder(ev.opt.Seed, len(st.reps))
	for k := range order {
		i := k
		if perm != nil {
			i = perm[k]
		}
		order[k] = st.reps[i].gid
	}
	return order
}

// orderKey names one refinement-order permutation.
type orderKey struct {
	seed int64
	n    int
}

// maxRefineOrders bounds the permutations kept: a full memo is emptied
// before the next one is added, so a caller cycling through seeds cannot
// grow it without bound. One seed's orders for every package size up to
// the bound fit.
const maxRefineOrders = 1024

// refineOrders memoizes refineOrder's permutations.
var refineOrders = struct {
	sync.Mutex
	m map[orderKey][]int
}{m: make(map[orderKey][]int)}

// refineOrder returns the permutation of n items that Shuffle applies on
// a fresh rand.New(rand.NewSource(seed)): item perm[k] of the ascending
// order lands at position k. Shuffle's swaps depend on positions alone,
// so shuffling the identity once gives the order for any n items. Each
// (seed, n) is computed once and shared read-only by every later
// evaluation (up to maxRefineOrders of them); seed 0 is nil, no shuffle.
func refineOrder(seed int64, n int) []int {
	if seed == 0 {
		return nil
	}
	key := orderKey{seed, n}
	refineOrders.Lock()
	defer refineOrders.Unlock()
	if perm, ok := refineOrders.m[key]; ok {
		return perm
	}
	perm := make([]int, n)
	for i := range perm {
		perm[i] = i
	}
	rand.New(rand.NewSource(seed)).Shuffle(n, func(i, j int) { perm[i], perm[j] = perm[j], perm[i] })
	if len(refineOrders.m) >= maxRefineOrders {
		clear(refineOrders.m)
	}
	refineOrders.m[key] = perm
	return perm
}

// refineRec is one node of the search tree. It returns the completed
// state, or the set of groups that could not be refined (for the parent's
// reprioritization).
func (ev *evaluator) refineRec(st *state, queue []int, isRoot bool, maxBT int) (*state, []int, error) {
	if len(st.reps) == 0 {
		return st, nil, nil // base case: all groups refined
	}
	var failed []int
	// The queue is consumed front to back; prioritize() moves failed
	// groups to the front.
	pending := append([]int(nil), queue...)
	for len(pending) > 0 {
		if err := ev.ctx.Err(); err != nil {
			return nil, nil, err
		}
		gid := pending[0]
		pending = pending[1:]
		if st.repMult(gid) == 0 {
			// Skip groups with no representative in the sketch package
			// (multiplicities are always positive when present).
			continue
		}
		next, err := ev.refineGroup(st, gid)
		if err != nil {
			if errors.Is(err, core.ErrInfeasible) {
				if !isRoot {
					// Greedy backtrack: report the non-refinable group.
					return nil, []int{gid}, errRefineFailed
				}
				// At the root there is no parent to backtrack to; try a
				// different first group.
				failed = append(failed, gid)
				continue
			}
			return nil, nil, err
		}
		childQueue := remove(pending, gid)
		final, childFailed, err := ev.refineRec(next, childQueue, false, maxBT)
		if err == nil {
			return final, nil, nil
		}
		if !errors.Is(err, errRefineFailed) {
			return nil, nil, err
		}
		ev.backtracks++
		ev.stats.Backtracks++
		if ev.backtracks > maxBT {
			return nil, failed, errRefineFailed
		}
		// Greedily prioritize the groups that failed below.
		failed = append(failed, childFailed...)
		pending = prioritize(pending, childFailed)
	}
	return nil, failed, errRefineFailed
}

func remove(xs []int, x int) []int {
	out := make([]int, 0, len(xs))
	for _, v := range xs {
		if v != x {
			out = append(out, v)
		}
	}
	return out
}

// prioritize moves the given gids (if present) to the front of the queue,
// preserving relative order otherwise.
func prioritize(queue, front []int) []int {
	front = slices.Clone(front)
	slices.Sort(front)
	inFront := func(g int) bool { _, ok := slices.BinarySearch(front, g); return ok }
	out := make([]int, 0, len(queue))
	for _, g := range queue {
		if inFront(g) {
			out = append(out, g)
		}
	}
	for _, g := range queue {
		if !inFront(g) {
			out = append(out, g)
		}
	}
	return out
}

// hybridSketch implements fallback #1 of Section 4.4: merge the sketch
// query with one group's refine query — original tuples for that group,
// representatives for the rest — trying groups in order until one is
// feasible. The returned state has the chosen group already refined.
func (ev *evaluator) hybridSketch() (*state, error) {
	for _, gid := range ev.gids {
		if err := ev.ctx.Err(); err != nil {
			return nil, err
		}
		st, err := ev.hybridSketchFor(gid)
		if err == nil {
			return st, nil
		}
		if !errors.Is(err, core.ErrInfeasible) {
			return nil, err
		}
	}
	return nil, core.ErrInfeasible
}

// hybridSketchFor builds and solves the hybrid query for one group: the
// ILP has one variable per original tuple of the group and one per other
// group's representative.
func (ev *evaluator) hybridSketchFor(gid int) (*state, error) {
	ctx, sp := obs.Start(ev.ctx, "hybrid_sketch")
	defer sp.Finish()
	sp.SetAttrInt("gid", int64(gid))
	t0 := time.Now()
	tupleRows, otherGids := ev.eligible[gid], remove(ev.gids, gid)
	prob, err := core.BuildILP(ev.spec, tupleRows, nil)
	if err != nil {
		return nil, err
	}
	repSpec, caps := ev.sketchColumns(otherGids)
	reps, err := core.BuildILP(repSpec, otherGids, caps)
	if err != nil {
		return nil, err
	}
	// Both halves carry the query's constraint rows and objective sense;
	// the hybrid problem is their columns side by side.
	nT := len(tupleRows)
	prob.LP.C = append(prob.LP.C, reps.LP.C...)
	prob.LP.Hi = append(prob.LP.Hi, reps.LP.Hi...)
	for i := range prob.LP.A {
		prob.LP.A[i] = append(prob.LP.A[i], reps.LP.A[i]...)
	}
	solverOpt := ev.opt.Solver
	ctx, hook := ev.subproblem(ctx, true)
	if hook != nil {
		offset := 0.0
		if ev.spec.Objective != nil {
			offset = ev.spec.Objective.Offset
		}
		// Hybrid incumbents span two domains (original tuples of one
		// group plus other groups' representatives), so no single row
		// mapping is faithful; forward objective progress only.
		solverOpt.OnIncumbent = func(_ []ilp.Entry, obj float64, nodes int) {
			hook(core.Incumbent{Objective: obj + offset, Nodes: nodes})
		}
	}
	build := time.Since(t0)
	res, sub, err := core.SolveILP(ctx, prob, solverOpt)
	sub.BuildTime = build
	ev.stats.Add(sub)
	if err != nil {
		return nil, err
	}
	// The entries, positive integers in ascending J, split at nT: the
	// group's tuples, then the other groups' representatives, ascending
	// by gid as otherGids is.
	st, k := &state{}, 0
	for ; k < len(res.Entries) && res.Entries[k].J < nT; k++ {
		e := res.Entries[k]
		st.rows, st.mult = append(st.rows, tupleRows[e.J]), append(st.mult, int(math.Round(e.X)))
	}
	for _, e := range res.Entries[k:] {
		st.reps = append(st.reps, rep{otherGids[e.J-nT], int(math.Round(e.X))})
	}
	return st, nil
}
