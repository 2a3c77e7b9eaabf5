// Package naive implements the traditional-SQL baseline of Section 2 and
// Figure 1: expressing a strict-cardinality package query as a multi-way
// self-join
//
//	SELECT * FROM R r1, R r2, ..., R rc
//	WHERE r1.pk < r2.pk < ... < rc.pk AND <base predicates>
//	  AND <global predicates over the c tuples>
//	ORDER BY <objective>
//
// and evaluating it the way a relational engine would: a nested-loop
// enumeration of ordered tuple combinations, testing the global
// predicates on each complete candidate and keeping the best objective.
// Its runtime grows as O(n^c), which is the point of the baseline — the
// paper's Figure 1 uses it to show that traditional database technology
// is ineffective for package evaluation.
package naive

import (
	"context"
	"errors"
	"fmt"
	"math"
	"time"

	"repro/internal/core"
	"repro/internal/lp"
)

// ErrTimeout is returned when enumeration exceeds the configured budget
// before it finds any package (see Solve).
var ErrTimeout = errors.New("naive: evaluation timed out")

// ErrUnsupported is returned for specs the self-join formulation cannot
// express (it requires REPEAT 0 and a strict COUNT(P.*) = c constraint).
var ErrUnsupported = errors.New("naive: self-join formulation requires REPEAT 0 and an exact cardinality constraint")

// Options configures the baseline.
type Options struct {
	// Timeout bounds wall-clock enumeration time; 0 means no limit.
	Timeout time.Duration
}

// Cardinality extracts the strict cardinality c from a spec, or an error
// when the spec has no COUNT(P.*) = c constraint.
func Cardinality(spec *core.Spec) (int, error) {
	for _, c := range spec.Constraints {
		if _, isUnit := c.Coef.(core.UnitCoef); isUnit && c.Op == lp.EQ {
			card := int(math.Round(c.RHS))
			if card < 0 || math.Abs(c.RHS-float64(card)) > 1e-9 {
				return 0, fmt.Errorf("naive: non-integer cardinality %g", c.RHS)
			}
			return card, nil
		}
	}
	return 0, ErrUnsupported
}

// Solve runs the self-join baseline on a compiled package query, under
// the budget rule the ILP-based strategies follow (AcceptIncumbent): an
// enumeration that ran out of Options.Timeout with a package in hand
// returns it, marked Truncated, and one with none returns ErrTimeout; one
// stopped because ctx was canceled or its deadline passed returns the
// context's error.
func Solve(ctx context.Context, spec *core.Spec, opt Options) (*core.Package, *core.EvalStats, error) {
	stats := &core.EvalStats{Subproblems: 1}
	defer func(t0 time.Time) { stats.SolveTime = time.Since(t0) }(time.Now())
	if spec.Repeat != 0 {
		return nil, stats, ErrUnsupported
	}
	card, err := Cardinality(spec)
	if err != nil {
		return nil, stats, err
	}
	rows := spec.BaseRows()
	n := len(rows)

	// The ILP's matrix is every coefficient over the base relation, a
	// column per constraint: evaluate once, index by position.
	prob, err := core.BuildILP(spec, rows, nil)
	if err != nil {
		return nil, stats, err
	}
	type boundCons struct {
		coef []float64
		op   lp.ConstraintOp
		rhs  float64
	}
	var cons []boundCons
	for ci, c := range spec.Constraints {
		if _, isUnit := c.Coef.(core.UnitCoef); isUnit && c.Op == lp.EQ {
			continue // the cardinality constraint is enforced structurally
		}
		cons = append(cons, boundCons{coef: prob.LP.A[ci], op: c.Op, rhs: c.RHS})
	}
	var objCoef []float64
	maximize := false
	if spec.Objective != nil {
		objCoef = prob.LP.C
		maximize = spec.Objective.Maximize
	}

	best := math.NaN()
	var bestRows []int
	deadline := time.Time{}
	if opt.Timeout > 0 {
		deadline = time.Now().Add(opt.Timeout)
	}
	timedOut := false
	// polls counts complete candidates; every 4096th checks the budget.
	polls := 0

	// Running partial sums per constraint and for the objective, exactly
	// what a nested-loop join pipeline would carry between join levels.
	consSum := make([]float64, len(cons))
	objSum := 0.0
	chosen := make([]int, 0, card)

	var rec func(start int) bool
	rec = func(start int) bool {
		if len(chosen) == card {
			polls++
			if polls%4096 == 0 && (!deadline.IsZero() && time.Now().After(deadline) || ctx.Err() != nil) {
				timedOut = true
				return false
			}
			for ci, c := range cons {
				switch c.op {
				case lp.LE:
					if consSum[ci] > c.rhs+core.FeasTol {
						return true
					}
				case lp.GE:
					if consSum[ci] < c.rhs-core.FeasTol {
						return true
					}
				case lp.EQ:
					if math.Abs(consSum[ci]-c.rhs) > core.FeasTol {
						return true
					}
				}
			}
			better := math.IsNaN(best)
			if !better && objCoef != nil {
				if maximize {
					better = objSum > best
				} else {
					better = objSum < best
				}
			}
			if better {
				best = objSum // 0 without an objective
				bestRows = append(bestRows[:0], chosen...)
			}
			return true
		}
		// r_k ranges over pk > previous pk (the r1.pk < r2.pk < ... joins).
		for i := start; i <= n-(card-len(chosen)); i++ {
			for ci, c := range cons {
				consSum[ci] += c.coef[i]
			}
			if objCoef != nil {
				objSum += objCoef[i]
			}
			chosen = append(chosen, rows[i])
			ok := rec(i + 1)
			chosen = chosen[:len(chosen)-1]
			for ci, c := range cons {
				consSum[ci] -= c.coef[i]
			}
			if objCoef != nil {
				objSum -= objCoef[i]
			}
			if !ok {
				return false
			}
		}
		return true
	}
	rec(0)

	switch {
	case timedOut && ctx.Err() != nil:
		return nil, stats, ctx.Err()
	case timedOut && bestRows == nil:
		return nil, stats, ErrTimeout
	case bestRows == nil:
		return nil, stats, core.ErrInfeasible
	}
	mult := make([]int, len(bestRows))
	for i := range mult {
		mult[i] = 1
	}
	pkg, err := core.NewPackage(spec.Rel, bestRows, mult)
	if err != nil {
		return nil, stats, err
	}
	stats.Truncated = timedOut
	return pkg, stats, nil
}
