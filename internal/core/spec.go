package core

import (
	"fmt"
	"math"
	"strings"

	"repro/internal/lp"
	"repro/internal/relation"
)

// Constraint is one compiled global predicate: Σ_t Coef(t)·x_t Op RHS.
// BETWEEN in PaQL compiles to a GE and an LE constraint.
type Constraint struct {
	Coef Coef
	Op   lp.ConstraintOp
	RHS  float64
	// Desc is the original PaQL text, for error messages and traces.
	Desc string
}

// String renders the constraint.
func (c Constraint) String() string {
	if c.Desc != "" {
		return c.Desc
	}
	return fmt.Sprintf("SUM[%s] %s %g", c.Coef, c.Op, c.RHS)
}

// Objective is the compiled MINIMIZE/MAXIMIZE clause: optimize
// Σ_t Coef(t)·x_t + Offset.
type Objective struct {
	Maximize bool
	Coef     Coef
	// Offset is the constant part of the objective expression; it does
	// not influence the argmax but is included in reported values.
	Offset float64
	Desc   string
}

// String renders the objective.
func (o *Objective) String() string {
	sense := "MINIMIZE"
	if o.Maximize {
		sense = "MAXIMIZE"
	}
	if o.Desc != "" {
		return sense + " " + o.Desc
	}
	return fmt.Sprintf("%s SUM[%s]", sense, o.Coef)
}

// Spec is a compiled, relation-bound package query: the output of the
// PaQL translator and the input of every evaluation strategy (DIRECT,
// SketchRefine, and the naive SQL baseline).
type Spec struct {
	// Rel is the input relation.
	Rel *relation.Relation
	// Repeat is the REPEAT bound: -1 for unlimited repetition, otherwise
	// K ≥ 0 allows each tuple to appear up to K+1 times.
	Repeat int
	// Base is the base (WHERE) predicate, or nil for all tuples.
	Base relation.Predicate
	// Restrictions are per-tuple eliminations derived from global
	// MIN/MAX predicates: a tuple failing any restriction cannot appear
	// in a package (its variable is fixed to zero).
	Restrictions []relation.Predicate
	// Constraints are the linear global predicates.
	Constraints []Constraint
	// Objective is the optimization criterion, or nil (feasibility-only;
	// the translator adds the paper's vacuous objective "max Σ 0·x").
	Objective *Objective
	// Cells, when set, is the source of BuildILP's cells for the candidate
	// rows (a partition view's group columns, for a group's whole member
	// list). Nil gathers every cell from Rel by row id.
	Cells Cells
}

// MaxMult returns the maximum multiplicity per tuple: Repeat+1, or
// +Inf as math.MaxInt when repetition is unlimited.
func (s *Spec) MaxMult() int {
	if s.Repeat < 0 {
		return math.MaxInt
	}
	return s.Repeat + 1
}

// BaseRows computes the base relation: the rows that satisfy the base
// predicate and every MIN/MAX restriction. All other tuples are
// eliminated from the problem, exactly like the xᵢ = 0 rule of the
// paper's translation.
func (s *Spec) BaseRows() []int { return s.Rel.Select(s.Filter()) }

// CountBase returns len(BaseRows()) without materializing the rows: the
// live row count when nothing filters, one counting pass otherwise.
// Planning needs only the number.
func (s *Spec) CountBase() int { return s.Rel.Count(s.Filter()) }

// FilterRows restricts an existing row set with the base predicate and
// restrictions.
func (s *Spec) FilterRows(rows []int) []int {
	pred := s.Filter()
	if pred == nil {
		return rows
	}
	return pred.Bind(s.Rel)(rows, nil)
}

// Filter is the conjunction of the base predicate and every MIN/MAX
// restriction — what a tuple must pass to be in the base relation — or
// nil when the query eliminates no tuple up front.
func (s *Spec) Filter() relation.Predicate {
	kids := make([]relation.Predicate, 0, 1+len(s.Restrictions))
	if s.Base != nil {
		kids = append(kids, s.Base)
	}
	kids = append(kids, s.Restrictions...)
	switch len(kids) {
	case 0:
		return nil
	case 1:
		return kids[0]
	default:
		return &relation.And{Kids: kids}
	}
}

// QueryAttrs returns the distinct numeric attributes referenced by the
// spec's constraints and objective — the "query attributes" that
// partitioning coverage is measured against (Section 5.2.3).
func (s *Spec) QueryAttrs() []string {
	var names []string
	for _, c := range s.Constraints {
		names = c.Coef.Attrs(names)
	}
	if s.Objective != nil {
		names = s.Objective.Coef.Attrs(names)
	}
	seen := make(map[string]bool, len(names))
	out := names[:0]
	for _, n := range names {
		key := strings.ToLower(n)
		if !seen[key] {
			seen[key] = true
			out = append(out, n)
		}
	}
	return out
}

// Validate checks the spec against its relation — an ILP build over no
// rows: an unknown or non-numeric attribute is what evaluating reports.
func (s *Spec) Validate() error {
	_, err := BuildILP(s, nil, nil)
	return err
}
