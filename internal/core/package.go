package core

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/lp"
	"repro/internal/relation"
)

// Package is a query answer: a multiset of tuples from the input relation.
// Rows holds distinct row indices and Mult the multiplicity of each (≥ 1).
type Package struct {
	Rel  *relation.Relation
	Rows []int
	Mult []int
}

// NewPackage builds a package from parallel row/multiplicity slices,
// dropping zero-multiplicity entries.
func NewPackage(rel *relation.Relation, rows, mult []int) (*Package, error) {
	if len(rows) != len(mult) {
		return nil, fmt.Errorf("core: rows/mult length mismatch %d vs %d", len(rows), len(mult))
	}
	p := &Package{Rel: rel}
	for k, r := range rows {
		switch {
		case mult[k] < 0:
			return nil, fmt.Errorf("core: negative multiplicity %d for row %d", mult[k], r)
		case mult[k] == 0:
			continue
		case r < 0 || r >= rel.Len():
			return nil, fmt.Errorf("core: row %d out of range [0, %d)", r, rel.Len())
		}
		p.Rows = append(p.Rows, r)
		p.Mult = append(p.Mult, mult[k])
	}
	return p, nil
}

// Size returns the total number of tuples counting multiplicity.
func (p *Package) Size() int {
	n := 0
	for _, m := range p.Mult {
		n += m
	}
	return n
}

// Distinct returns the number of distinct tuples.
func (p *Package) Distinct() int { return len(p.Rows) }

// AggregateValue computes Σ_t coef(t)·mult(t) over the package.
func (p *Package) AggregateValue(coef Coef) (float64, error) {
	return Weighted(0, coef, p.Rel, p.Rows, p.Mult)
}

// ObjectiveValue computes the spec objective over the package (including
// the constant offset). It returns 0 for feasibility-only specs.
func (p *Package) ObjectiveValue(spec *Spec) (float64, error) {
	if spec.Objective == nil {
		return 0, nil
	}
	v, err := p.AggregateValue(spec.Objective.Coef)
	if err != nil {
		return 0, err
	}
	return v + spec.Objective.Offset, nil
}

// FeasTol is the absolute tolerance used when checking package
// feasibility against constraint bounds.
const FeasTol = 1e-6

// Violation describes one failed feasibility check.
type Violation struct {
	Desc string
}

// String implements fmt.Stringer.
func (v Violation) String() string { return v.Desc }

// Check verifies the package against every part of the spec: repetition
// bound, base predicate, restrictions, and all global constraints. It
// returns the list of violations (empty when feasible).
func (p *Package) Check(spec *Spec) ([]Violation, error) {
	var out []Violation
	maxMult := spec.MaxMult()
	pass := spec.FilterRows(p.Rows)
	for k, r := range p.Rows {
		if p.Mult[k] > maxMult {
			out = append(out, Violation{fmt.Sprintf("tuple %d repeated %d times, REPEAT %d allows %d", r, p.Mult[k], spec.Repeat, maxMult)})
		}
		if len(pass) > 0 && pass[0] == r {
			pass = pass[1:]
		} else {
			out = append(out, Violation{fmt.Sprintf("tuple %d fails the base predicate/restrictions", r)})
		}
	}
	for _, c := range spec.Constraints {
		v, err := p.AggregateValue(c.Coef)
		if err != nil {
			return nil, err
		}
		ok := true
		switch c.Op {
		case lp.LE:
			ok = v <= c.RHS+FeasTol
		case lp.GE:
			ok = v >= c.RHS-FeasTol
		case lp.EQ:
			ok = v >= c.RHS-FeasTol && v <= c.RHS+FeasTol
		}
		if !ok {
			out = append(out, Violation{fmt.Sprintf("constraint %q violated: value %g", c, v)})
		}
	}
	return out, nil
}

// IsFeasible reports whether the package satisfies the spec.
func (p *Package) IsFeasible(spec *Spec) (bool, error) {
	v, err := p.Check(spec)
	if err != nil {
		return false, err
	}
	return len(v) == 0, nil
}

// Materialize builds a standalone relation holding the package contents
// (with repeated tuples duplicated), following the paper's representation
// of a package as a relation with the input schema.
func (p *Package) Materialize(name string) *relation.Relation {
	out := relation.New(name, p.Rel.Schema())
	order := make([]int, len(p.Rows))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool { return p.Rows[order[a]] < p.Rows[order[b]] })
	for _, k := range order {
		for c := 0; c < p.Mult[k]; c++ {
			// Identical schemas by construction; AppendFrom cannot fail.
			_ = out.AppendFrom(p.Rel, p.Rows[k])
		}
	}
	return out
}

// String summarizes the package.
func (p *Package) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "package{%d tuples", p.Size())
	if p.Distinct() != p.Size() {
		fmt.Fprintf(&b, " (%d distinct)", p.Distinct())
	}
	b.WriteString("}")
	return b.String()
}
