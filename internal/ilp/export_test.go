package ilp

import (
	"context"

	"repro/internal/lp"
)

// The external test package (ilp_test, which may import core and
// workload without a cycle) reaches solve's relaxation seam and the
// dense oracle through these.

// recorder notes the LP objective of every node solved to optimality.
// The relaxations of one solve share objs, so a nested solve's nodes
// land in it too, in solve order.
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

// keepAll ignores Retire: the LP kernel keeps pricing every column.
type keepAll struct{ relaxation }

func (keepAll) Retire(int) {}

// solveRecording is SolveCtx over whatever relaxation wrap makes of each
// workspace, returning the LP objective of every node, in solve order.
func solveRecording(ctx context.Context, p *Problem, opt Options, wrap func(relaxation) relaxation) (*Result, []float64, error) {
	var objs []float64
	res, err := solve(ctx, p, opt, func(q *lp.Problem) (relaxation, error) {
		w, err := lp.NewWorkspace(q)
		if err != nil {
			return nil, err
		}
		return &recorder{relaxation: wrap(w), objs: &objs}, nil
	})
	return res, objs, err
}

// SolveRecording is SolveCtx that also returns the LP objective of every
// node, in solve order.
func SolveRecording(ctx context.Context, p *Problem, opt Options) (*Result, []float64, error) {
	return solveRecording(ctx, p, opt, func(r relaxation) relaxation { return r })
}

// SolveRecordingUnretired is SolveRecording with Retire ignored, so no
// column ever leaves the kernel's loops.
func SolveRecordingUnretired(ctx context.Context, p *Problem, opt Options) (*Result, []float64, error) {
	return solveRecording(ctx, p, opt, func(r relaxation) relaxation { return keepAll{r} })
}

// SolveOverOracle is SolveRecording with every node's relaxation solved
// cold by the dense oracle instead of the warm workspace, one oracle per
// problem solved.
func SolveOverOracle(ctx context.Context, p *Problem, opt Options) (*Result, []float64, error) {
	var objs []float64
	res, err := solve(ctx, p, opt, func(q *lp.Problem) (relaxation, error) {
		return &recorder{relaxation: newDenseRelaxation(q), objs: &objs}, nil
	})
	return res, objs, err
}

// AllocProblem is the knapsack fixture of the allocation gate.
var AllocProblem = allocProblem
