// Package lp implements a revised bounded-variable simplex solver for
// linear programs:
//
//	maximize (or minimize)  cᵀx
//	subject to              Aᵢ·x (≤ | = | ≥) bᵢ   for each row i
//	                        loⱼ ≤ xⱼ ≤ hiⱼ        for each variable j
//
// It is the continuous-relaxation engine underneath the branch-and-bound
// ILP solver in internal/ilp, which together replace the proprietary ILP
// solver (CPLEX) used in the paper. Variable bounds are handled natively
// by the simplex (nonbasic variables rest at either bound), so the REPEAT
// bounds and per-group count caps of package queries do not add rows.
//
// Package LPs are extreme in shape — a handful of rows, 10³–10⁶ bounded
// columns — so the kernel never forms a tableau. A Workspace keeps the
// basis header, an explicit m×m basis inverse, the at-lower/at-upper
// status of the nonbasic columns and O(n) scratch, and prices straight
// over the Problem's row slices. Workspace.Solve runs a bounded primal
// simplex from the slack basis (infeasibilities are priced out by a
// composite phase 1, so there are no artificial columns);
// Workspace.Reoptimize runs a bounded dual simplex from the basis the
// workspace already holds, which stays dual feasible under any change of
// bounds — the one thing a branch-and-bound child differs by. SolveCtx is
// the one-shot wrapper over the same workspace.
//
// Every variable must have at least one finite bound; free variables are
// not supported (package-query translations always produce xⱼ ≥ 0).
package lp

import (
	"context"
	"errors"
	"fmt"
	"math"
)

// ConstraintOp is the sense of one linear constraint row.
type ConstraintOp int

const (
	// LE is "≤".
	LE ConstraintOp = iota
	// GE is "≥".
	GE
	// EQ is "=".
	EQ
)

// String returns the mathematical spelling of the operator.
func (op ConstraintOp) String() string {
	if names := [...]string{"<=", ">=", "="}; op >= 0 && int(op) < len(names) {
		return names[op]
	}
	return fmt.Sprintf("ConstraintOp(%d)", int(op))
}

// Status reports the outcome of a solve.
type Status int

const (
	// Optimal means an optimal basic feasible solution was found.
	Optimal Status = iota
	// Infeasible means the constraint system has no solution.
	Infeasible
	// Unbounded means the objective is unbounded over the feasible region.
	Unbounded
	// IterLimit means the iteration budget was exhausted (numerical
	// trouble); treat as a solver failure.
	IterLimit
)

// canceled is the internal status for a context-canceled run; SolveCtx
// converts it to the context's error before returning.
const canceled Status = -1

// String names the status.
func (s Status) String() string {
	if names := [...]string{"optimal", "infeasible", "unbounded", "iteration-limit"}; s >= 0 && int(s) < len(names) {
		return names[s]
	}
	return fmt.Sprintf("Status(%d)", int(s))
}

// Problem is a linear program. A and B must have the same number of rows;
// every row of A, and C, Lo, Hi must have length NumVars.
type Problem struct {
	Maximize bool
	C        []float64
	A        [][]float64
	Op       []ConstraintOp
	B        []float64
	Lo       []float64 // defaults to 0 when nil
	Hi       []float64 // defaults to +Inf when nil
}

// NumVars returns the number of structural variables.
func (p *Problem) NumVars() int { return len(p.C) }

// NumRows returns the number of constraint rows.
func (p *Problem) NumRows() int { return len(p.B) }

// Validate checks dimensions and bounds.
func (p *Problem) Validate() error {
	n := len(p.C)
	if len(p.A) != len(p.B) || len(p.Op) != len(p.B) {
		return fmt.Errorf("lp: %d rows in A, %d in B, %d ops", len(p.A), len(p.B), len(p.Op))
	}
	for i, row := range p.A {
		if len(row) != n {
			return fmt.Errorf("lp: row %d has %d coefficients, want %d", i, len(row), n)
		}
	}
	if p.Lo != nil && len(p.Lo) != n {
		return fmt.Errorf("lp: Lo has length %d, want %d", len(p.Lo), n)
	}
	if p.Hi != nil && len(p.Hi) != n {
		return fmt.Errorf("lp: Hi has length %d, want %d", len(p.Hi), n)
	}
	for j := 0; j < n; j++ {
		lo, hi := p.Bounds(j)
		if lo > hi {
			return fmt.Errorf("lp: variable %d has empty domain [%g, %g]", j, lo, hi)
		}
		if math.IsInf(lo, -1) && math.IsInf(hi, 1) {
			return fmt.Errorf("lp: variable %d is free; free variables are unsupported", j)
		}
	}
	return nil
}

// Bounds returns variable j's bounds, the defaults filled in.
func (p *Problem) Bounds(j int) (lo, hi float64) {
	lo, hi = 0, math.Inf(1)
	if p.Lo != nil {
		lo = p.Lo[j]
	}
	if p.Hi != nil {
		hi = p.Hi[j]
	}
	return lo, hi
}

// Solution is the result of a solve.
type Solution struct {
	Status     Status
	X          []float64 // structural variable values (valid when Optimal)
	Objective  float64   // cᵀx in the problem's own sense (valid when Optimal)
	Iterations int
	// DJ holds the reduced costs of the structural variables at the
	// optimum, in the internal maximization sense (minimization
	// problems are solved as max −C). At optimality, a variable
	// nonbasic at its lower bound has DJ ≤ 0 and raising it by Δ can
	// improve the (maximization) objective by at most DJ·Δ; a variable
	// at its upper bound has DJ ≥ 0. Branch-and-bound uses these for
	// reduced-cost variable fixing. They come from the duals y that
	// Workspace.Duals returns, in the same sense: DJⱼ = ±Cⱼ − y·Aⱼ.
	DJ []float64
}

// ErrBadProblem wraps validation failures.
var ErrBadProblem = errors.New("lp: invalid problem")

// SolveCtx solves the linear program from scratch in a private
// Workspace, aborting early (with the context's error) when ctx is
// canceled or its deadline passes. Cancellation is polled every 64
// simplex iterations, so an abandoned solve stops within microseconds
// rather than running its full iteration budget.
func SolveCtx(ctx context.Context, p *Problem) (*Solution, error) {
	w, err := NewWorkspace(p)
	if err != nil {
		return nil, err
	}
	st, err := w.Solve(ctx)
	if err != nil {
		return nil, err
	}
	sol := &Solution{Status: st, Iterations: w.stats.PrimalIterations + w.stats.DualIterations}
	if st == Optimal {
		// The workspace is private to this call: hand its buffers over.
		sol.X, sol.Objective, sol.DJ = w.X(), w.Objective(), w.DJ()
	}
	return sol, nil
}
