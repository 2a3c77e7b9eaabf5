// Package core implements the package-query engine: the compiled query
// representation (Spec), the Package result type, and the DIRECT
// evaluation strategy of Section 3 of the paper — translate the whole
// query into one integer linear program and hand it to the solver.
package core

import (
	"fmt"
	"slices"
	"strings"

	"repro/internal/relation"
)

// Coef is the per-tuple coefficient of one linear package aggregate: the
// contribution of tuple t to f(P) per unit of multiplicity. COUNT
// contributes 1 per tuple, SUM(attr) contributes t.attr, the AVG rewrite
// contributes t.attr − v, and conditional aggregates contribute through an
// indicator. A Coef is data: its arithmetic is written once, in coefRow,
// over cells from either source a Cells describes — so the same Coef works
// on the input relation, on partition groups (row subsets), and on
// representative relations, as long as the referenced attributes exist in
// the schema.
type Coef interface {
	fmt.Stringer
	// Attrs appends the attribute names this coefficient reads.
	Attrs(dst []string) []string
}

// Cells serves the coefficient evaluator the candidate rows' numeric
// cells laid out contiguously: Cells(col)[j] is column col's cell at
// rows[j], as float64, and Cells(-1) is a row of ones, in slices the
// evaluator may alias but never writes — a partition view's group columns
// (partition.Partitioning.GroupColumn), for a group's whole member list.
// Without one, the cells are gathered from the relation by row id
// (relation.Relation.Cells).
type Cells func(col int) []float64

// UnitCoef contributes 1 per tuple: the COUNT(P.*) coefficient.
type UnitCoef struct{}

// String implements Coef.
func (UnitCoef) String() string { return "1" }

// Attrs implements Coef.
func (UnitCoef) Attrs(dst []string) []string { return dst }

// AttrCoef contributes the tuple's attribute value: the SUM(P.attr)
// coefficient.
type AttrCoef struct{ Attr string }

// numericColumn resolves attr to the index of one of r's numeric columns.
func numericColumn(r *relation.Relation, attr string) (int, error) {
	idx, err := r.Schema().MustLookup(attr)
	if err != nil {
		return 0, err
	}
	if !r.Schema().Col(idx).Type.Numeric() {
		return 0, fmt.Errorf("core: %w: aggregate over non-numeric column %q", relation.ErrTypeMismatch, attr)
	}
	return idx, nil
}

// String implements Coef.
func (c AttrCoef) String() string { return c.Attr }

// Attrs implements Coef.
func (c AttrCoef) Attrs(dst []string) []string { return append(dst, c.Attr) }

// ShiftedAttrCoef contributes attr + shift per tuple. It implements the
// AVG linearization of the paper: AVG(P.attr) ≤ v becomes
// Σ (t.attr − v)·x ≤ 0, i.e. shift = −v.
type ShiftedAttrCoef struct {
	Attr  string
	Shift float64
}

// String implements Coef.
func (c ShiftedAttrCoef) String() string {
	if c.Shift >= 0 {
		return fmt.Sprintf("(%s + %g)", c.Attr, c.Shift)
	}
	return fmt.Sprintf("(%s - %g)", c.Attr, -c.Shift)
}

// Attrs implements Coef.
func (c ShiftedAttrCoef) Attrs(dst []string) []string { return append(dst, c.Attr) }

// CondCoef gates an inner coefficient with a per-tuple predicate: the
// coefficient of conditional aggregates such as
// (SELECT COUNT(*) FROM P WHERE carbs > 0).
type CondCoef struct {
	Pred  relation.Predicate
	Inner Coef
}

// zeroFailing zeroes dst[j] for every rows[j] not in pass, an ascending
// subsequence of rows.
func zeroFailing(rows, pass []int, dst []float64) {
	k := 0
	for j, i := range rows {
		if k < len(pass) && pass[k] == i {
			k++
		} else {
			dst[j] = 0
		}
	}
}

// String implements Coef.
func (c CondCoef) String() string {
	return fmt.Sprintf("[%s ? %s : 0]", c.Pred, c.Inner)
}

// Attrs implements Coef. Predicate attributes are not tracked; only the
// aggregated attribute matters for partitioning-coverage decisions.
func (c CondCoef) Attrs(dst []string) []string { return c.Inner.Attrs(dst) }

// ScaledCoef multiplies an inner coefficient by a constant weight.
type ScaledCoef struct {
	W     float64
	Inner Coef
}

// String implements Coef.
func (c ScaledCoef) String() string { return fmt.Sprintf("%g*%s", c.W, c.Inner) }

// Attrs implements Coef.
func (c ScaledCoef) Attrs(dst []string) []string { return c.Inner.Attrs(dst) }

// SumCoef adds several coefficients: the per-tuple coefficient of a linear
// combination of aggregates on one side of a comparison.
type SumCoef struct{ Parts []Coef }

// String implements Coef.
func (c SumCoef) String() string {
	parts := make([]string, len(c.Parts))
	for i, p := range c.Parts {
		parts[i] = p.String()
	}
	return strings.Join(parts, " + ")
}

// Attrs implements Coef.
func (c SumCoef) Attrs(dst []string) []string {
	for _, p := range c.Parts {
		dst = p.Attrs(dst)
	}
	return dst
}

// coefRow is the one coefficient evaluator: c's coefficient at every row
// of rows, over rel, with the cells served by cells, or gathered from rel
// by row id when cells is nil. A bare attribute's row, and COUNT's, is the
// served slice clipped so that an append copies it; every other row is
// fresh. A conditional coefficient selects by row id. An attribute rel
// does not have, or holds no numbers in, is the error.
func coefRow(c Coef, rel *relation.Relation, cells Cells, rows []int) ([]float64, error) {
	if cells == nil {
		cells = func(col int) []float64 { return rel.Cells(col, rows) }
	}
	n := len(rows)
	switch c := c.(type) {
	case UnitCoef:
		return cells(-1)[:n:n], nil
	case AttrCoef:
		idx, err := numericColumn(rel, c.Attr)
		if err != nil {
			return nil, err
		}
		return cells(idx)[:n:n], nil
	case ShiftedAttrCoef:
		attr, err := coefRow(AttrCoef{Attr: c.Attr}, rel, cells, rows)
		return mapRow(attr, err, func(v float64) float64 { return v + c.Shift })
	case ScaledCoef:
		inner, err := coefRow(c.Inner, rel, cells, rows)
		return mapRow(inner, err, func(v float64) float64 { return c.W * v })
	case CondCoef:
		inner, err := coefRow(c.Inner, rel, cells, rows)
		if err != nil {
			return nil, err
		}
		row := slices.Clone(inner)
		zeroFailing(rows, c.Pred.Bind(rel)(rows, nil), row)
		return row, nil
	case SumCoef:
		row := make([]float64, n)
		for _, p := range c.Parts {
			term, err := coefRow(p, rel, cells, rows)
			if err != nil {
				return nil, err
			}
			for j, v := range term {
				row[j] += v
			}
		}
		return row, nil
	}
	return nil, fmt.Errorf("core: unknown coefficient kind %T", c)
}

// Weighted adds Σ mult[k]·c(rows[k]) over rel to v, a term at a time in
// order: a package's aggregate, or a running sum over several row sets.
func Weighted(v float64, c Coef, rel *relation.Relation, rows, mult []int) (float64, error) {
	coefs, err := coefRow(c, rel, nil, rows)
	if err != nil {
		return 0, err
	}
	for k, x := range coefs {
		v += float64(mult[k]) * x
	}
	return v, nil
}

// mapRow returns a fresh row of f over in's cells, or err.
func mapRow(in []float64, err error, f func(float64) float64) ([]float64, error) {
	if err != nil {
		return nil, err
	}
	out := make([]float64, len(in))
	for j, v := range in {
		out[j] = f(v)
	}
	return out, nil
}
