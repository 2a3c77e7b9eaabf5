package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"time"

	"repro/internal/ilp"
	"repro/internal/lp"
	"repro/internal/obs"
)

// ErrInfeasible is returned when no package satisfies the query.
var ErrInfeasible = errors.New("core: query is infeasible")

// ErrResourceLimit is returned when the solver exhausted its node or time
// budget — the reproduction of the paper's CPLEX failures (out-of-memory
// or one-hour timeout).
var ErrResourceLimit = errors.New("core: solver resource limit exceeded")

// EvalStats records the work done by one evaluation.
type EvalStats struct {
	// Vars is the number of ILP variables after base-relation
	// elimination.
	Vars int
	// Rows is the number of ILP constraint rows.
	Rows int
	// SolverNodes is the number of branch-and-bound nodes explored.
	SolverNodes int
	// LPIterations is the total simplex iterations.
	LPIterations int
	// WarmSolves counts node relaxations re-optimized from the basis of
	// the node before; ColdSolves those solved from scratch (each sifting
	// round of an ILP's root, each working-set round's root, and any node
	// whose warm start failed numerically).
	WarmSolves, ColdSolves int
	// BuildTime is the PaQL→ILP translation/materialization time.
	BuildTime time.Duration
	// SolveTime is the time spent inside the ILP solver.
	SolveTime time.Duration
	// Subproblems is the number of ILP solves (1 for DIRECT; one per
	// sketch/refine query for SketchRefine).
	Subproblems int
	// Truncated reports that at least one solve exhausted a wall-clock or
	// node budget and a best-effort incumbent was accepted instead of a
	// proven optimum. Such results are feasible but depend on machine
	// speed and load — a rerun with a larger budget could improve them.
	Truncated bool
	// Backtracks counts SketchRefine refinement backtracks (0 for DIRECT
	// and NAIVE evaluations).
	Backtracks int
}

// Add accumulates another stats record (used by SketchRefine).
func (s *EvalStats) Add(o *EvalStats) {
	if o == nil {
		return
	}
	if o.Vars > s.Vars {
		s.Vars = o.Vars // track the largest subproblem
	}
	if o.Rows > s.Rows {
		s.Rows = o.Rows
	}
	s.SolverNodes += o.SolverNodes
	s.LPIterations += o.LPIterations
	s.WarmSolves += o.WarmSolves
	s.ColdSolves += o.ColdSolves
	s.BuildTime += o.BuildTime
	s.SolveTime += o.SolveTime
	s.Subproblems += o.Subproblems
	s.Truncated = s.Truncated || o.Truncated
	s.Backtracks += o.Backtracks
}

// BuildILP translates the spec restricted to the given candidate rows
// into an integer linear program, one variable per row, following the
// translation rules of Section 3.1:
//
//  1. REPEAT K bounds every variable to [0, K+1] (absent: [0, ∞));
//  2. base predicates have already eliminated variables (rows is the
//     base relation);
//  3. each global predicate becomes one linear row;
//  4. the objective is the linear objective, or the vacuous "max Σ 0·x".
//
// hi optionally overrides the per-variable upper bounds (used by the
// sketch query's per-group count caps); nil applies the REPEAT bound.
// Coefficients are evaluated over spec.Rel; one that does not evaluate
// (an unknown or non-numeric attribute) is the build's error. Their cells
// come from spec.Cells when it is set, and the problem may share its rows
// with either cell source: nothing may write a built problem's A or C in
// place.
func BuildILP(spec *Spec, rows []int, hi []float64) (*ilp.Problem, error) {
	n := len(rows)
	switch {
	case spec.Rel == nil:
		return nil, fmt.Errorf("core: spec has no input relation")
	case spec.Repeat < -1:
		return nil, fmt.Errorf("core: invalid repeat %d", spec.Repeat)
	case hi != nil && len(hi) != n:
		return nil, fmt.Errorf("core: hi has length %d, want %d", len(hi), n)
	}
	prob := &ilp.Problem{
		LP: lp.Problem{
			Hi: make([]float64, n), // Lo is nil: every lower bound is 0
			A:  make([][]float64, 0, len(spec.Constraints)),
			Op: make([]lp.ConstraintOp, 0, len(spec.Constraints)),
			B:  make([]float64, 0, len(spec.Constraints)),
		},
	}
	defaultHi := math.Inf(1)
	if spec.Repeat >= 0 {
		defaultHi = float64(spec.Repeat + 1)
	}
	for j := 0; j < n; j++ {
		if hi != nil {
			prob.LP.Hi[j] = hi[j]
		} else {
			prob.LP.Hi[j] = defaultHi
		}
	}
	for _, c := range spec.Constraints {
		row, err := coefRow(c.Coef, spec.Rel, spec.Cells, rows)
		if err != nil {
			return nil, fmt.Errorf("core: constraint %q: %w", c, err)
		}
		prob.LP.A = append(prob.LP.A, row)
		prob.LP.Op = append(prob.LP.Op, c.Op)
		prob.LP.B = append(prob.LP.B, c.RHS)
	}
	if spec.Objective != nil {
		prob.LP.Maximize = spec.Objective.Maximize
		c, err := coefRow(spec.Objective.Coef, spec.Rel, spec.Cells, rows)
		if err != nil {
			return nil, fmt.Errorf("core: objective %q: %w", spec.Objective, err)
		}
		prob.LP.C = c
	} else {
		// Vacuous objective: max Σ 0·xᵢ.
		prob.LP.C, prob.LP.Maximize = make([]float64, n), true
	}
	return prob, nil
}

// Incumbent is one improving feasible solution surfaced while a solve
// is still running — the unit of the anytime-results stream. Rows and
// Mult describe the incumbent package in the coordinates of the relation
// the subproblem was solved over (the input relation, or — when Sketch
// is true — the representative relation R̃). Objective is the
// subproblem's objective value including the spec's constant offset;
// for a DIRECT solve it is the package objective itself.
type Incumbent struct {
	Rows []int
	Mult []int
	// Objective is the incumbent's objective value.
	Objective float64
	// Nodes is the number of branch-and-bound nodes explored when the
	// incumbent was found.
	Nodes int
	// Subproblem identifies which ILP solve produced the incumbent
	// (always 0 for DIRECT; SketchRefine numbers its sketch/refine
	// solves in evaluation order and tags them itself).
	Subproblem int
	// Sketch marks incumbents of solves over the representative
	// relation (SketchRefine's sketch and hybrid-sketch queries), whose
	// Rows index R̃ rather than the input relation.
	Sketch bool
}

// IncumbentFunc receives improving incumbents as they are found. It is
// called synchronously from inside the solver: implementations must be
// fast and must not call back into the evaluation.
type IncumbentFunc func(Incumbent)

// decode maps a solution's nonzero entries over rows, every one a
// positive integer (the lower bounds are 0), back to package coordinates:
// the rows and their multiplicities, in one allocation sized to the package.
func decode(rows []int, entries []ilp.Entry) (pkgRows, pkgMult []int) {
	buf := make([]int, 2*len(entries))
	pkgRows, pkgMult = buf[:len(entries)], buf[len(entries):]
	for k, e := range entries {
		pkgRows[k], pkgMult[k] = rows[e.J], int(math.Round(e.X))
	}
	return pkgRows, pkgMult
}

type subproblemKey struct{}

// WithSubproblem tags ctx with the ordinal of the ILP solve about to run
// under it, for that solve's "ilp" span. The ordinal is trace metadata
// only, which is why it rides on the context next to the span it
// labels; an untagged solve (DIRECT's single ILP) records 0.
func WithSubproblem(ctx context.Context, n int) context.Context {
	return context.WithValue(ctx, subproblemKey{}, n)
}

// SolveILP hands a built problem to the black-box solver — the one call
// site of ilp.SolveCtx on the query path — under an "ilp" span, and
// turns the outcome into the evaluation's terms: the work done, and
// ErrInfeasible, ErrResourceLimit (wrapped), an unboundedness error or
// the context's error for every status that carries no usable solution.
// A budget-exhausted solve with an incumbent succeeds when
// opt.AcceptIncumbent is set; its stats are marked Truncated.
func SolveILP(ctx context.Context, prob *ilp.Problem, opt ilp.Options) (*ilp.Result, *EvalStats, error) {
	ctx, sp := obs.Start(ctx, "ilp")
	defer sp.Finish()
	stats := &EvalStats{Subproblems: 1, Vars: prob.LP.NumVars(), Rows: prob.LP.NumRows()}
	sub, _ := ctx.Value(subproblemKey{}).(int)
	sp.SetAttrInt("subproblem", int64(sub))
	sp.SetAttrInt("vars", int64(stats.Vars))
	sp.SetAttrInt("rows", int64(stats.Rows))
	t0 := time.Now()
	res, err := ilp.SolveCtx(ctx, prob, opt)
	stats.SolveTime = time.Since(t0)
	if err != nil {
		return nil, stats, err
	}
	stats.SolverNodes = res.Nodes
	stats.LPIterations = res.LPIterations
	stats.WarmSolves, stats.ColdSolves = res.WarmSolves, res.ColdSolves
	sp.SetAttrInt("nodes", int64(res.Nodes))
	sp.SetAttrInt("lp_iterations", int64(res.LPIterations))
	sp.SetAttrInt("warm_solves", int64(res.WarmSolves))
	sp.SetAttrInt("cold_solves", int64(res.ColdSolves))
	sp.SetAttrInt("dual_iterations", int64(res.DualIterations))
	sp.SetAttrInt("primal_iterations", int64(res.PrimalIterations))
	sp.SetAttrInt("refactorizations", int64(res.Refactorizations))
	sp.SetAttrInt("incumbents", int64(res.Incumbents))
	sp.SetAttrInt("retired", int64(res.Retired))
	sp.SetAttrInt("rounds", int64(res.Rounds))
	sp.SetAttrInt("working_set", int64(res.WorkingSet))
	sp.SetAttrInt("root_rounds", int64(res.RootRounds))
	sp.SetAttrInt("root_columns", int64(res.RootColumns))
	sp.SetAttrStr("status", res.Status.String())
	switch res.Status {
	case ilp.Infeasible:
		return nil, stats, ErrInfeasible
	case ilp.Unbounded:
		return nil, stats, fmt.Errorf("core: objective is unbounded (add a REPEAT bound or a cardinality constraint)")
	case ilp.ResourceLimit:
		if !(opt.AcceptIncumbent && res.HasIncumbent) {
			return nil, stats, fmt.Errorf("%w: %d branch-and-bound nodes", ErrResourceLimit, res.Nodes)
		}
		// Budget exhausted with a feasible incumbent: use it (the
		// behavior of a production solver under a time limit).
		stats.Truncated = true
	}
	return res, stats, nil
}

// Solve evaluates the spec restricted to the given candidate rows: build
// one ILP over them and solve it. hi optionally overrides per-variable
// upper bounds. Every improving incumbent the branch-and-bound search
// installs is forwarded to fn, in package coordinates, before the final
// answer is returned; a nil fn is a plain solve. Cancellation or a
// context deadline aborts the search and returns the context's error;
// otherwise the error is one of SolveILP's, or an internal failure.
func Solve(ctx context.Context, spec *Spec, rows []int, hi []float64, opt ilp.Options, fn IncumbentFunc) (*Package, *EvalStats, error) {
	t0 := time.Now()
	prob, err := BuildILP(spec, rows, hi)
	if err != nil {
		return nil, &EvalStats{Subproblems: 1}, err
	}
	build := time.Since(t0)
	if fn != nil {
		offset := 0.0
		if spec.Objective != nil {
			offset = spec.Objective.Offset
		}
		opt.OnIncumbent = func(entries []ilp.Entry, obj float64, nodes int) {
			pkgRows, pkgMult := decode(rows, entries)
			fn(Incumbent{Rows: pkgRows, Mult: pkgMult, Objective: obj + offset, Nodes: nodes})
		}
	}
	res, stats, err := SolveILP(ctx, prob, opt)
	stats.BuildTime = build
	if err != nil {
		return nil, stats, err
	}
	pkgRows, pkgMult := decode(rows, res.Entries)
	pkg, err := NewPackage(spec.Rel, pkgRows, pkgMult)
	if err != nil {
		return nil, stats, err
	}
	return pkg, stats, nil
}

// Direct is the paper's DIRECT evaluation method: compute the base
// relation, translate the whole query into a single ILP, and solve it
// with the black-box solver. fn receives the solve's improving
// incumbents, each a feasible (possibly suboptimal) package over the
// input relation; it may be nil.
func Direct(ctx context.Context, spec *Spec, opt ilp.Options, fn IncumbentFunc) (*Package, *EvalStats, error) {
	return Solve(ctx, spec, spec.BaseRows(), nil, opt, fn)
}
