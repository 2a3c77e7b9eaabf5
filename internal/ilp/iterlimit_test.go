package ilp

import (
	"context"
	"math"
	"math/rand"
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
	res, err := solve(context.Background(), p, Options{}, workingSet, func(q *lp.Problem) (relaxation, error) {
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
	res, err := solve(context.Background(), p, Options{}, workingSet, func(*lp.Problem) (relaxation, error) { return d, nil })
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

// TestResourceLimitBoundHoldsTheOptimum: a search that runs out of nodes
// reports a BestBound no better than the true optimum, and an incumbent
// no better than it either. The instances are small random ILPs searched
// from a working set of one variable, so budgets run out in rounds with
// variables still left out, whose share of the bound is the root bound
// less their reduced costs: without it the bound undercuts the optimum
// on several of them.
func TestResourceLimitBoundHoldsTheOptimum(t *testing.T) {
	ctx, limited := context.Background(), 0
	for seed := int64(0); seed < 1500; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 4 + rng.Intn(6)
		p := &Problem{LP: lp.Problem{Maximize: rng.Intn(2) == 0, C: make([]float64, n), Hi: make([]float64, n)}}
		for j := 0; j < n; j++ {
			p.LP.C[j] = float64(rng.Intn(21) - 5)
			p.LP.Hi[j] = float64(1 + rng.Intn(2))
		}
		for i := rng.Intn(3); i >= 0; i-- {
			// A row through a random 0/1 point, its right-hand side moved by
			// 0, ½ or 1.
			row, lhs := make([]float64, n), 0.0
			for j := range row {
				row[j] = float64(rng.Intn(13) - 3)
				lhs += row[j] * float64(rng.Intn(2))
			}
			op := []lp.ConstraintOp{lp.LE, lp.GE, lp.EQ}[rng.Intn(3)]
			p.LP.A, p.LP.Op, p.LP.B = append(p.LP.A, row), append(p.LP.Op, op), append(p.LP.B, lhs+float64(rng.Intn(3))/2)
		}
		want := bruteForce(p)
		if math.IsNaN(want) {
			continue
		}
		full, err := solve(ctx, p, Options{}, 1, workspace)
		if err != nil || full.Status != Optimal || math.Abs(full.Objective-want) > 1e-9 {
			t.Fatalf("seed %d: %+v, %v; enumeration finds %v", seed, full, err, want)
		}
		for budget := 1; budget < full.Nodes; budget++ {
			res, err := solve(ctx, p, Options{MaxNodes: budget}, 1, workspace)
			if err != nil {
				t.Fatal(err)
			}
			if res.Status != ResourceLimit {
				continue
			}
			limited++
			sign := 1.0 // turns "better than" into "greater than"
			if !p.LP.Maximize {
				sign = -1
			}
			if sign*(want-res.BestBound) > 1e-9 || res.HasIncumbent && sign*(res.Objective-want) > 1e-9 {
				t.Errorf("seed %d, %d nodes (%d rounds over %d): best bound %v, incumbent %v (%v); optimum %v",
					seed, budget, res.Rounds, res.WorkingSet, res.BestBound, res.Objective, res.HasIncumbent, want)
			}
		}
	}
	if limited < 1000 {
		t.Errorf("only %d budget-limited searches: the fixtures no longer exercise the bound", limited)
	}
}
