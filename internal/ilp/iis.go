package ilp

import (
	"context"

	"repro/internal/lp"
)

// FindIIS computes an irreducible infeasible subset of constraint rows of
// an infeasible LP relaxation using the classic deletion filter: every row
// outside the returned set can be removed while preserving infeasibility,
// and removing any row inside it makes the remainder feasible.
//
// The paper (Section 4.4) uses the solver's IIS facility to decide which
// partitioning attributes to drop when SketchRefine hits false
// infeasibility; this is that facility. The returned indices refer to rows
// of p.A and are sorted ascending. If the problem is actually feasible,
// FindIIS returns nil.
func FindIIS(ctx context.Context, p *lp.Problem) ([]int, error) {
	feasible, err := rowsFeasible(ctx, p, nil)
	if err != nil {
		return nil, err
	}
	if feasible {
		return nil, nil
	}
	// active[i] marks rows still in the candidate set.
	active := make([]bool, p.NumRows())
	for i := range active {
		active[i] = true
	}
	for i := 0; i < p.NumRows(); i++ {
		active[i] = false
		feasible, err := rowsFeasible(ctx, p, active)
		if err != nil {
			return nil, err
		}
		if feasible {
			// Row i is necessary for infeasibility; keep it.
			active[i] = true
		}
	}
	var iis []int
	for i, a := range active {
		if a {
			iis = append(iis, i)
		}
	}
	return iis, nil
}

// rowsFeasible solves the feasibility problem restricted to active rows
// (all rows when active is nil).
func rowsFeasible(ctx context.Context, p *lp.Problem, active []bool) (bool, error) {
	sub := lp.Problem{
		Maximize: true,
		C:        make([]float64, p.NumVars()),
		Lo:       p.Lo,
		Hi:       p.Hi,
	}
	for i := 0; i < p.NumRows(); i++ {
		if active != nil && !active[i] {
			continue
		}
		sub.A = append(sub.A, p.A[i])
		sub.Op = append(sub.Op, p.Op[i])
		sub.B = append(sub.B, p.B[i])
	}
	sol, err := lp.SolveCtx(ctx, &sub)
	if err != nil {
		return false, err
	}
	return sol.Status == lp.Optimal, nil
}
