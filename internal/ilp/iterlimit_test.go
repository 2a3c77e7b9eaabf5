package ilp

import (
	"context"
	"math"
	"testing"

	"repro/internal/lp"
)

// failing wraps the real workspace and reports lp.IterLimit, as a
// numerically failed relaxation would, on the listed Reoptimize calls.
type failing struct {
	relaxation
	call   int
	failOn map[int]bool
}

func (f *failing) Reoptimize(ctx context.Context) (lp.Status, error) {
	f.call++
	st, err := f.relaxation.Reoptimize(ctx)
	if f.failOn[f.call] {
		return lp.IterLimit, nil
	}
	return st, err
}

func solveFailingOn(t *testing.T, p *Problem, calls ...int) *Result {
	t.Helper()
	failOn := map[int]bool{}
	for _, c := range calls {
		failOn[c] = true
	}
	res, err := solve(context.Background(), p, Options{}, func(q *lp.Problem) (relaxation, error) {
		w, err := lp.NewWorkspace(q)
		return &failing{relaxation: w, failOn: failOn}, err
	})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestLostSubtreeIsNotOptimal: a node whose relaxation fails takes its
// subtree with it, so the search can no longer claim optimality. It used
// to skip the node and still finish Optimal; it now finishes
// ResourceLimit with the incumbent kept and a BestBound that covers the
// lost subtree, which core.SolveILP turns into ErrResourceLimit or a
// Truncated result.
func TestLostSubtreeIsNotOptimal(t *testing.T) {
	p := allocProblem()
	full, err := SolveCtx(context.Background(), p, Options{})
	if err != nil || full.Status != Optimal {
		t.Fatalf("reference solve: %v, %v", full, err)
	}
	for _, call := range []int{2, 3, 7, full.Nodes / 2} {
		res := solveFailingOn(t, p, call)
		if res.Status != ResourceLimit {
			t.Errorf("relaxation %d failed: status %v, want resource-limit", call, res.Status)
			continue
		}
		if !res.HasIncumbent {
			t.Errorf("relaxation %d failed: the incumbent was dropped", call)
			continue
		}
		// Maximization: incumbent ≤ true optimum ≤ BestBound.
		if res.Objective > full.Objective+1e-9 || res.BestBound < full.Objective-1e-9 {
			t.Errorf("relaxation %d failed: incumbent %g, best bound %g do not bracket the optimum %g",
				call, res.Objective, res.BestBound, full.Objective)
		}
	}
}

// TestRootIterLimitIsResourceLimit: the root relaxation running out of
// iterations (here the dense oracle with its unexported cap lowered to
// one pivot) proves nothing at all.
func TestRootIterLimitIsResourceLimit(t *testing.T) {
	p := allocProblem()
	d := newDenseRelaxation(&p.LP)
	d.maxIter = 1
	res, err := solve(context.Background(), p, Options{}, func(*lp.Problem) (relaxation, error) { return d, nil })
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != ResourceLimit || res.HasIncumbent || !math.IsInf(res.BestBound, 1) {
		t.Errorf("status %v, incumbent %v, best bound %g; want resource-limit, none, +Inf", res.Status, res.HasIncumbent, res.BestBound)
	}
	if res := solveFailingOn(t, p, 1); res.Status != ResourceLimit {
		t.Errorf("workspace root failure: status %v, want resource-limit", res.Status)
	}
}
