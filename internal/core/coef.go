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

// Coef computes the per-tuple coefficient of one linear package aggregate:
// the contribution of tuple t to f(P) per unit of multiplicity. COUNT
// contributes 1 per tuple, SUM(attr) contributes t.attr, the AVG rewrite
// contributes t.attr − v, and conditional aggregates contribute through an
// indicator. Coefficients bind to a relation once and are then gathered
// a row list at a time, so the same Coef works on the input relation, on
// partition groups (row subsets), and on representative relations — as
// long as the referenced attributes exist in the schema.
type Coef interface {
	// Bind resolves attribute references against a relation — column
	// index and type, once — and returns the gather over its columns.
	Bind(r *relation.Relation) (Fill, error)
	fmt.Stringer
	// Attrs appends the attribute names this coefficient reads.
	Attrs(dst []string) []string
}

// Fill is a coefficient bound to one relation: it writes the coefficient
// of rows[j] to dst[j], for every j (dst is at least as long as rows).
// Like a relation.Selection it may keep scratch and holds the relation's
// columns: one goroutine, dropped with the call that bound it.
type Fill func(rows []int, dst []float64)

// UnitCoef contributes 1 per tuple: the COUNT(P.*) coefficient.
type UnitCoef struct{}

// Bind implements Coef.
func (UnitCoef) Bind(*relation.Relation) (Fill, error) {
	return func(rows []int, dst []float64) {
		for j := range rows {
			dst[j] = 1
		}
	}, nil
}

// String implements Coef.
func (UnitCoef) String() string { return "1" }

// Attrs implements Coef.
func (UnitCoef) Attrs(dst []string) []string { return dst }

// AttrCoef contributes the tuple's attribute value: the SUM(P.attr)
// coefficient.
type AttrCoef struct{ Attr string }

// Bind implements Coef.
func (c AttrCoef) Bind(r *relation.Relation) (Fill, error) { return gather(r, c.Attr) }

// gather binds the numeric column attr of r as a Fill of its cells.
func gather(r *relation.Relation, attr string) (Fill, error) {
	idx, err := numericColumn(r, attr)
	if err != nil {
		return nil, err
	}
	if r.Schema().Col(idx).Type == relation.Int {
		return gatherColumn(r.IntColumn(idx)), nil
	}
	return gatherColumn(r.FloatColumn(idx)), nil
}

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

func gatherColumn[T int64 | float64](col []T) Fill {
	return func(rows []int, dst []float64) {
		for j, i := range rows {
			dst[j] = float64(col[i])
		}
	}
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

// Bind implements Coef.
func (c ShiftedAttrCoef) Bind(r *relation.Relation) (Fill, error) {
	attr, err := gather(r, c.Attr)
	if err != nil {
		return nil, err
	}
	return func(rows []int, dst []float64) {
		attr(rows, dst)
		for j := range rows {
			dst[j] += c.Shift
		}
	}, nil
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

// Bind implements Coef.
func (c CondCoef) Bind(r *relation.Relation) (Fill, error) {
	inner, err := c.Inner.Bind(r)
	if err != nil {
		return nil, err
	}
	pred := c.Pred.Bind(r)
	var pass []int
	return func(rows []int, dst []float64) {
		inner(rows, dst)
		pass = pred(rows, pass)
		zeroFailing(rows, pass, dst)
	}, nil
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

// Bind implements Coef.
func (c ScaledCoef) Bind(r *relation.Relation) (Fill, error) {
	inner, err := c.Inner.Bind(r)
	if err != nil {
		return nil, err
	}
	return func(rows []int, dst []float64) {
		inner(rows, dst)
		for j := range rows {
			dst[j] = c.W * dst[j]
		}
	}, nil
}

// String implements Coef.
func (c ScaledCoef) String() string { return fmt.Sprintf("%g*%s", c.W, c.Inner) }

// Attrs implements Coef.
func (c ScaledCoef) Attrs(dst []string) []string { return c.Inner.Attrs(dst) }

// SumCoef adds several coefficients: the per-tuple coefficient of a linear
// combination of aggregates on one side of a comparison.
type SumCoef struct{ Parts []Coef }

// Bind implements Coef.
func (c SumCoef) Bind(r *relation.Relation) (Fill, error) {
	parts := make([]Fill, len(c.Parts))
	for i, p := range c.Parts {
		part, err := p.Bind(r)
		if err != nil {
			return nil, err
		}
		parts[i] = part
	}
	var term []float64
	return func(rows []int, dst []float64) {
		if cap(term) < len(rows) {
			term = make([]float64, len(rows))
		}
		clear(dst[:len(rows)])
		for _, part := range parts {
			part(rows, term)
			for j := range rows {
				dst[j] += term[j]
			}
		}
	}, nil
}

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

// coefRow computes c's coefficient at every candidate row of spec: a fresh
// row that c's Fill gathers from spec.Rel by row id, unless spec.Cells
// serves the cells. Then a bare attribute's row, and COUNT's, is a shared
// slice clipped so that an append copies it, and every other row is
// computed from the served cells with the Fill's operations in the Fill's
// order, so that both sources give the same bits. A conditional
// coefficient still selects by row id.
func coefRow(c Coef, spec *Spec, rows []int) ([]float64, error) {
	n := len(rows)
	if spec.Cells != nil {
		switch c := c.(type) {
		case UnitCoef:
			return spec.Cells(-1)[:n:n], nil
		case AttrCoef:
			idx, err := numericColumn(spec.Rel, c.Attr)
			if err != nil {
				return nil, err
			}
			return spec.Cells(idx)[:n:n], nil
		case ShiftedAttrCoef:
			attr, err := coefRow(AttrCoef{Attr: c.Attr}, spec, rows)
			return mapRow(attr, err, func(v float64) float64 { return v + c.Shift })
		case ScaledCoef:
			inner, err := coefRow(c.Inner, spec, rows)
			return mapRow(inner, err, func(v float64) float64 { return c.W * v })
		case CondCoef:
			inner, err := coefRow(c.Inner, spec, rows)
			if err != nil {
				return nil, err
			}
			row := slices.Clone(inner)
			zeroFailing(rows, c.Pred.Bind(spec.Rel)(rows, nil), row)
			return row, nil
		case SumCoef:
			row := make([]float64, n)
			for _, p := range c.Parts {
				term, err := coefRow(p, spec, rows)
				if err != nil {
					return nil, err
				}
				for j, v := range term {
					row[j] += v
				}
			}
			return row, nil
		}
	}
	fill, err := c.Bind(spec.Rel)
	if err != nil {
		return nil, err
	}
	row := make([]float64, n)
	fill(rows, row)
	return row, nil
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
