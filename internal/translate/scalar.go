// Package translate compiles parsed PaQL queries into the engine's
// executable representation (core.Spec), implementing the PaQL → ILP
// translation rules of Section 3.1 of the paper:
//
//  1. REPEAT K restricts variable domains to 0 ≤ xᵢ ≤ K+1;
//  2. base predicates (WHERE) become base relations that eliminate
//     variables;
//  3. each linear global predicate f(P) ⋈ v becomes a linear constraint
//     over per-tuple coefficients — COUNT → Σxᵢ, SUM(attr) → Σ tᵢ.attr·xᵢ,
//     AVG(attr) ⋈ v → Σ(tᵢ.attr − v)·xᵢ ⋈ 0, conditional sub-query
//     aggregates → indicator-gated coefficients;
//  4. MINIMIZE/MAXIMIZE becomes the ILP objective (or the vacuous
//     objective max Σ 0·xᵢ when absent).
//
// As an extension beyond strict linearity, the one-sided global predicates
// MIN(P.attr) ≥ v and MAX(P.attr) ≤ v are compiled into per-tuple domain
// restrictions (they are equivalent to eliminating violating tuples); the
// disjunctive directions are rejected as non-linear.
package translate

import (
	"fmt"
	"math"
	"strings"

	"repro/internal/paql"
	"repro/internal/relation"
)

// scalarKind distinguishes numeric from string scalar expressions.
type scalarKind int

const (
	numScalar scalarKind = iota
	strScalar
)

// scalarFn is a per-tuple scalar expression: bound to a relation — its
// columns resolved once — it yields the per-row evaluator of its kind.
type scalarFn struct {
	kind scalarKind
	num  func(r *relation.Relation) func(row int) float64
	str  func(r *relation.Relation) func(row int) string
}

// constScalar is the bound form of a literal.
func constScalar[T any](v T) func(*relation.Relation) func(int) T {
	return func(*relation.Relation) func(int) T { return func(int) T { return v } }
}

// compileScalar compiles a tuple-level PaQL expression (a WHERE operand)
// into an evaluator against the given schema. alias is the relation alias
// that qualified column references must match.
func compileScalar(e paql.Expr, schema relation.Schema, alias string) (*scalarFn, error) {
	switch x := e.(type) {
	case paql.NumLit:
		return &scalarFn{kind: numScalar, num: constScalar(x.Val)}, nil
	case paql.StrLit:
		return &scalarFn{kind: strScalar, str: constScalar(x.Val)}, nil
	case paql.ColRef:
		if x.Star {
			return nil, fmt.Errorf("translate: %s is not a scalar", x)
		}
		if x.Qualifier != "" && !strings.EqualFold(x.Qualifier, alias) {
			return nil, fmt.Errorf("translate: column %s references unknown alias (relation alias is %q)", x, alias)
		}
		idx, err := schema.MustLookup(x.Name)
		if err != nil {
			return nil, err
		}
		// The column is resolved per bind, not here: compiled predicates
		// are also bound to the representative relation, whose schema
		// differs. A column missing there reads as NaN (every comparison
		// false) or "" — what a cell of the other kind reads as.
		name := x.Name
		if schema.Col(idx).Type.Numeric() {
			return &scalarFn{kind: numScalar, num: func(r *relation.Relation) func(int) float64 {
				c := r.Schema().Lookup(name)
				if c < 0 {
					return constScalar(math.NaN())(r)
				}
				return func(row int) float64 { return r.Float(row, c) }
			}}, nil
		}
		return &scalarFn{kind: strScalar, str: func(r *relation.Relation) func(int) string {
			c := r.Schema().Lookup(name)
			if c < 0 {
				return constScalar("")(r)
			}
			return func(row int) string { return r.Str(row, c) }
		}}, nil
	case paql.Neg:
		inner, err := compileScalar(x.E, schema, alias)
		if err != nil {
			return nil, err
		}
		if inner.kind != numScalar {
			return nil, fmt.Errorf("translate: cannot negate a string expression")
		}
		return &scalarFn{kind: numScalar, num: func(r *relation.Relation) func(int) float64 {
			f := inner.num(r)
			return func(row int) float64 { return -f(row) }
		}}, nil
	case paql.Arith:
		l, err := compileScalar(x.L, schema, alias)
		if err != nil {
			return nil, err
		}
		r, err := compileScalar(x.R, schema, alias)
		if err != nil {
			return nil, err
		}
		if l.kind != numScalar || r.kind != numScalar {
			return nil, fmt.Errorf("translate: arithmetic over string expressions")
		}
		op := x.Op
		return &scalarFn{kind: numScalar, num: func(rel *relation.Relation) func(int) float64 {
			lf, rf := l.num(rel), r.num(rel)
			switch op {
			case paql.Add:
				return func(row int) float64 { return lf(row) + rf(row) }
			case paql.Sub:
				return func(row int) float64 { return lf(row) - rf(row) }
			case paql.Mul:
				return func(row int) float64 { return lf(row) * rf(row) }
			default:
				return func(row int) float64 { return lf(row) / rf(row) }
			}
		}}, nil
	case paql.Agg:
		return nil, fmt.Errorf("translate: aggregate %s in tuple-level expression", x)
	default:
		return nil, fmt.Errorf("translate: unsupported scalar expression %s", e)
	}
}

// CompilePredicate compiles a tuple-level boolean PaQL expression into a
// relation.Predicate. It prefers the structured predicate types (so the
// quad-tree partitioner and traces stay readable) and falls back to a
// compiled closure for arithmetic comparisons.
func CompilePredicate(e paql.Expr, schema relation.Schema, alias string) (relation.Predicate, error) {
	switch x := e.(type) {
	case paql.Bool:
		kids := make([]relation.Predicate, len(x.Kids))
		for i, k := range x.Kids {
			p, err := CompilePredicate(k, schema, alias)
			if err != nil {
				return nil, err
			}
			kids[i] = p
		}
		switch x.Kind {
		case paql.AndExpr:
			return &relation.And{Kids: kids}, nil
		case paql.OrExpr:
			return &relation.Or{Kids: kids}, nil
		default:
			return &relation.Not{Kid: kids[0]}, nil
		}
	case paql.Cmp:
		return compileComparison(x, schema, alias)
	case paql.Between:
		lo, okLo := constValue(x.Lo)
		hi, okHi := constValue(x.Hi)
		col, isCol := simpleColumn(x.E, alias)
		if isCol && okLo && okHi {
			if err := checkColLitTypes(col, schema, false); err != nil {
				return nil, err
			}
			return &relation.Between{Col: col, Lo: lo, Hi: hi}, nil
		}
		ef, err := compileScalar(x.E, schema, alias)
		if err != nil {
			return nil, err
		}
		lof, err := compileScalar(x.Lo, schema, alias)
		if err != nil {
			return nil, err
		}
		hif, err := compileScalar(x.Hi, schema, alias)
		if err != nil {
			return nil, err
		}
		if ef.kind != numScalar || lof.kind != numScalar || hif.kind != numScalar {
			return nil, fmt.Errorf("translate: BETWEEN over string expressions")
		}
		desc := x.String()
		return &relation.FuncPred{Desc: desc, Fn: func(r *relation.Relation) func(int) bool {
			e, lo, hi := ef.num(r), lof.num(r), hif.num(r)
			return func(row int) bool {
				v := e(row)
				return v >= lo(row) && v <= hi(row)
			}
		}}, nil
	default:
		return nil, fmt.Errorf("translate: %q is not a boolean tuple predicate", e)
	}
}

// checkColLitTypes rejects a column/literal comparison whose types can
// never match, so type confusions surface as translate-time errors
// instead of silently-false predicates at evaluation time.
func checkColLitTypes(col string, schema relation.Schema, litIsString bool) error {
	idx, err := schema.MustLookup(col)
	if err != nil {
		return err
	}
	colIsString := schema.Col(idx).Type == relation.String
	if colIsString != litIsString {
		got := "a numeric"
		if litIsString {
			got = "a string"
		}
		return fmt.Errorf("translate: %w: column %q is %s, compared with %s literal",
			relation.ErrTypeMismatch, col, schema.Col(idx).Type, got)
	}
	return nil
}

func compileComparison(x paql.Cmp, schema relation.Schema, alias string) (relation.Predicate, error) {
	// Fast path: column ⋈ constant.
	if col, ok := simpleColumn(x.L, alias); ok {
		if _, err := schema.MustLookup(col); err != nil {
			return nil, err
		}
		if lit, ok := x.R.(paql.StrLit); ok {
			if err := checkColLitTypes(col, schema, true); err != nil {
				return nil, err
			}
			return relation.NewCompare(col, cmpOp(x.Op), relation.S(lit.Val)), nil
		}
		if v, ok := constValue(x.R); ok {
			if err := checkColLitTypes(col, schema, false); err != nil {
				return nil, err
			}
			return relation.NewCompare(col, cmpOp(x.Op), relation.F(v)), nil
		}
	}
	// Mirrored: constant ⋈ column.
	if col, ok := simpleColumn(x.R, alias); ok {
		if _, err := schema.MustLookup(col); err != nil {
			return nil, err
		}
		if lit, ok := x.L.(paql.StrLit); ok {
			if err := checkColLitTypes(col, schema, true); err != nil {
				return nil, err
			}
			return relation.NewCompare(col, flipOp(cmpOp(x.Op)), relation.S(lit.Val)), nil
		}
		if v, ok := constValue(x.L); ok {
			if err := checkColLitTypes(col, schema, false); err != nil {
				return nil, err
			}
			return relation.NewCompare(col, flipOp(cmpOp(x.Op)), relation.F(v)), nil
		}
	}
	// General case: compiled scalar comparison.
	l, err := compileScalar(x.L, schema, alias)
	if err != nil {
		return nil, err
	}
	r, err := compileScalar(x.R, schema, alias)
	if err != nil {
		return nil, err
	}
	if l.kind != r.kind {
		return nil, fmt.Errorf("translate: comparing string with numeric in %q", x)
	}
	desc := x.String()
	op := cmpOp(x.Op)
	if l.kind == strScalar {
		return &relation.FuncPred{Desc: desc, Fn: func(rel *relation.Relation) func(int) bool {
			ls, rs := l.str(rel), r.str(rel)
			return func(row int) bool { return relation.Holds(op, ls(row), rs(row)) }
		}}, nil
	}
	return &relation.FuncPred{Desc: desc, Fn: func(rel *relation.Relation) func(int) bool {
		lf, rf := l.num(rel), r.num(rel)
		return func(row int) bool { return relation.Holds(op, lf(row), rf(row)) }
	}}, nil
}

// simpleColumn reports whether e is a bare (possibly alias-qualified)
// column reference and returns the column name.
func simpleColumn(e paql.Expr, alias string) (string, bool) {
	ref, ok := e.(paql.ColRef)
	if !ok || ref.Star {
		return "", false
	}
	if ref.Qualifier != "" && !strings.EqualFold(ref.Qualifier, alias) {
		return "", false
	}
	return ref.Name, true
}

// constValue evaluates a constant numeric expression.
func constValue(e paql.Expr) (float64, bool) {
	switch x := e.(type) {
	case paql.NumLit:
		return x.Val, true
	case paql.Neg:
		v, ok := constValue(x.E)
		return -v, ok
	case paql.Arith:
		l, okL := constValue(x.L)
		r, okR := constValue(x.R)
		if !okL || !okR {
			return 0, false
		}
		switch x.Op {
		case paql.Add:
			return l + r, true
		case paql.Sub:
			return l - r, true
		case paql.Mul:
			return l * r, true
		default:
			if r == 0 {
				return 0, false
			}
			return l / r, true
		}
	default:
		return 0, false
	}
}

func cmpOp(op paql.CmpOp) relation.CmpOp {
	switch op {
	case paql.Eq:
		return relation.EQ
	case paql.Ne:
		return relation.NE
	case paql.Lt:
		return relation.LT
	case paql.Le:
		return relation.LE
	case paql.Gt:
		return relation.GT
	default:
		return relation.GE
	}
}

// flipOp mirrors an operator across its operands (const ⋈ col → col ⋈' const).
func flipOp(op relation.CmpOp) relation.CmpOp {
	switch op {
	case relation.LT:
		return relation.GT
	case relation.LE:
		return relation.GE
	case relation.GT:
		return relation.LT
	case relation.GE:
		return relation.LE
	default:
		return op
	}
}
