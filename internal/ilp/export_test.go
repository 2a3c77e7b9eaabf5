package ilp

import (
	"context"

	"repro/internal/lp"
)

// The external test package (ilp_test, which may import core and
// workload without a cycle) reaches solve's relaxation seam and the
// dense oracle through these.

// recorder notes the LP objective of every node solved to optimality.
type recorder struct {
	relaxation
	objs []float64
}

func (r *recorder) Reoptimize(ctx context.Context) (lp.Status, error) {
	st, err := r.relaxation.Reoptimize(ctx)
	if err == nil && st == lp.Optimal {
		r.objs = append(r.objs, r.Objective())
	}
	return st, err
}

// SolveRecording is SolveCtx that also returns the LP objective of every
// node, in solve order.
func SolveRecording(ctx context.Context, p *Problem, opt Options) (*Result, []float64, error) {
	var rec *recorder
	res, err := solve(ctx, p, opt, func(q *lp.Problem) (relaxation, error) {
		w, err := lp.NewWorkspace(q)
		rec = &recorder{relaxation: w}
		return rec, err
	})
	return res, rec.objs, err
}

// SolveOverOracle is SolveRecording with every node's relaxation solved
// cold by the dense oracle instead of the warm workspace.
func SolveOverOracle(ctx context.Context, p *Problem, opt Options) (*Result, []float64, error) {
	d := newDenseRelaxation(&p.LP)
	res, err := solve(ctx, p, opt, func(*lp.Problem) (relaxation, error) { return d, nil })
	return res, d.objs, err
}

// AllocProblem is the knapsack fixture of the allocation gate.
var AllocProblem = allocProblem
