package ilp

import (
	"context"

	"repro/internal/lp"
)

// The external test package (ilp_test, which may import core and
// workload without a cycle) reaches solve's relaxation seam and the
// dense oracle through these.

// recorder notes the LP objective of every node solved to optimality.
// The relaxations of one solve share objs, so every round's nodes land
// in it, in solve order.
type recorder struct {
	relaxation
	objs *[]float64
}

func (r *recorder) Reoptimize(ctx context.Context) (lp.Status, error) {
	st, err := r.relaxation.Reoptimize(ctx)
	if err == nil && st == lp.Optimal {
		*r.objs = append(*r.objs, r.Objective())
	}
	return st, err
}

// solveRecording is solve with a first working set of initial variables,
// over whatever relaxation kernel makes of each problem, returning the LP
// objective of every node, in solve order.
func solveRecording(ctx context.Context, p *Problem, opt Options, initial int, kernel func(*lp.Problem) (relaxation, error)) (*Result, []float64, error) {
	var objs []float64
	res, err := solve(ctx, p, opt, initial, func(q *lp.Problem) (relaxation, error) {
		r, err := kernel(q)
		if err != nil {
			return nil, err
		}
		return &recorder{relaxation: r, objs: &objs}, nil
	})
	return res, objs, err
}

// workspace is the kernel SolveCtx builds.
func workspace(q *lp.Problem) (relaxation, error) { return lp.NewWorkspace(q) }

// SolveRecording is SolveCtx that also returns the LP objective of every
// node, in solve order.
func SolveRecording(ctx context.Context, p *Problem, opt Options) (*Result, []float64, error) {
	return solveRecording(ctx, p, opt, workingSet, workspace)
}

// SolveFullWidth is SolveRecording with no working set: every node's
// relaxation is over every variable.
func SolveFullWidth(ctx context.Context, p *Problem, opt Options) (*Result, []float64, error) {
	return solveRecording(ctx, p, opt, p.LP.NumVars(), workspace)
}

// SolveOverOracle is SolveRecording with every node's relaxation solved
// cold by the dense oracle instead of the warm workspace, one oracle per
// problem solved.
func SolveOverOracle(ctx context.Context, p *Problem, opt Options) (*Result, []float64, error) {
	return solveRecording(ctx, p, opt, workingSet, func(q *lp.Problem) (relaxation, error) {
		return newDenseRelaxation(q), nil
	})
}

// AllocProblem is the knapsack fixture of the allocation gate.
var AllocProblem = allocProblem

// Dense expands r's entries to the n-vector they are the nonzeros of, or
// nil without an incumbent, for tests that index the solution.
func (r *Result) Dense(n int) []float64 {
	if !r.HasIncumbent {
		return nil
	}
	x := make([]float64, n)
	for _, e := range r.Entries {
		x[e.J] = e.X
	}
	return x
}

// LocalSearch is the swap local search accept runs on an integral point,
// over block tops sized by Blocks.
var LocalSearch, Blocks = localSearch, blocks
