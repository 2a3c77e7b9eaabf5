package relation

import (
	"fmt"
	"strings"
)

// Predicate is a per-tuple boolean condition — the engine's representation
// of a PaQL/SQL WHERE clause (the paper's "base predicates"). A predicate
// is immutable and names its columns; Bind resolves them against one
// relation, and the Selection it returns does the evaluating, a column
// and a row list at a time.
type Predicate interface {
	// Bind resolves the predicate's columns against r — index and type,
	// once — and returns its selection pass over r's column storage. A
	// column r lacks (the representative relation has only the
	// partitioning attributes) or of the wrong type selects nothing.
	Bind(r *Relation) Selection
	String() string
}

// Selection is a predicate bound to one relation. It writes those of rows
// that pass to out, in order, and returns them; out is reallocated when
// it cannot hold len(rows), and may be rows itself (filtering in place)
// but must not otherwise overlap it. It reads cells, not liveness. It may
// keep scratch between calls and holds the relation's columns: use it
// from one goroutine and drop it with the call that bound it.
type Selection func(rows, out []int) []int

// fit returns out sized to receive a selection from n rows.
func fit(out []int, n int) []int {
	if cap(out) < n {
		return make([]int, n)
	}
	return out[:n]
}

// selectIf is the row-at-a-time selection: string comparisons, FuncPred.
func selectIf(test func(row int) bool) Selection {
	return func(rows, out []int) []int {
		out = fit(out, len(rows))
		n := 0
		for _, i := range rows {
			if test(i) {
				out[n] = i
				n++
			}
		}
		return out[:n]
	}
}

func selectNone(_, out []int) []int { return out[:0] }

// without writes rows minus sub, a subsequence of it, to out.
func without(rows, sub, out []int) []int {
	out = fit(out, len(rows))
	n, k := 0, 0
	for _, i := range rows {
		if k < len(sub) && sub[k] == i {
			k++
			continue
		}
		out[n] = i
		n++
	}
	return out[:n]
}

// CmpOp is a comparison operator in a base predicate.
type CmpOp int

const (
	// EQ is "=".
	EQ CmpOp = iota
	// NE is "<>".
	NE
	// LT is "<".
	LT
	// LE is "<=".
	LE
	// GT is ">".
	GT
	// GE is ">=".
	GE
)

// String returns the SQL spelling of the operator.
func (op CmpOp) String() string {
	switch op {
	case EQ:
		return "="
	case NE:
		return "<>"
	case LT:
		return "<"
	case LE:
		return "<="
	case GT:
		return ">"
	case GE:
		return ">="
	default:
		return fmt.Sprintf("CmpOp(%d)", int(op))
	}
}

// Holds reports whether "a op b" is true of two cells of one kind.
func Holds[T float64 | string](op CmpOp, a, b T) bool {
	switch op {
	case EQ:
		return a == b
	case NE:
		return a != b
	case LT:
		return a < b
	case LE:
		return a <= b
	case GT:
		return a > b
	case GE:
		return a >= b
	}
	return false
}

// cmpSelection is "column op c" over a numeric column, compared as float64
// whatever the column's type. Each loop writes every row and advances only
// past the ones that pass, so it has no data-dependent branch.
func cmpSelection[T int64 | float64](col []T, op CmpOp, c float64) Selection {
	return func(rows, out []int) []int {
		out = fit(out, len(rows))
		n := 0
		switch op {
		case EQ:
			for _, i := range rows {
				out[n] = i
				if float64(col[i]) == c {
					n++
				}
			}
		case NE:
			for _, i := range rows {
				out[n] = i
				if float64(col[i]) != c {
					n++
				}
			}
		case LT:
			for _, i := range rows {
				out[n] = i
				if float64(col[i]) < c {
					n++
				}
			}
		case LE:
			for _, i := range rows {
				out[n] = i
				if float64(col[i]) <= c {
					n++
				}
			}
		case GT:
			for _, i := range rows {
				out[n] = i
				if float64(col[i]) > c {
					n++
				}
			}
		case GE:
			for _, i := range rows {
				out[n] = i
				if float64(col[i]) >= c {
					n++
				}
			}
		}
		return out[:n]
	}
}

// Compare is a predicate of the form "column op constant". A string
// constant matches only a TEXT column and a numeric one only a numeric
// column; any other pairing selects nothing.
type Compare struct {
	Col   string
	Op    CmpOp
	Const Value
}

// NewCompare builds a comparison predicate on the named column.
func NewCompare(col string, op CmpOp, c Value) *Compare {
	return &Compare{Col: col, Op: op, Const: c}
}

// Bind implements Predicate.
func (p *Compare) Bind(r *Relation) Selection {
	idx := r.schema.Lookup(p.Col)
	if idx < 0 || (r.cols[idx].typ == String) != (p.Const.typ == String) {
		return selectNone
	}
	switch c := r.cols[idx]; c.typ {
	case Float:
		return cmpSelection(c.f, p.Op, p.Const.num())
	case Int:
		return cmpSelection(c.i, p.Op, p.Const.num())
	default:
		col, op, s := c.s, p.Op, p.Const.s
		return selectIf(func(row int) bool { return Holds(op, col[row], s) })
	}
}

// String implements Predicate. A string constant's quotes are doubled,
// as PaQL writes them, so no constant can close its literal early and
// read as more predicate: the rendering is a cache key.
func (p *Compare) String() string {
	if p.Const.Type() == String {
		return fmt.Sprintf("%s %s '%s'", p.Col, p.Op, strings.ReplaceAll(p.Const.s, "'", "''"))
	}
	return fmt.Sprintf("%s %s %s", p.Col, p.Op, p.Const)
}

// Between is a predicate "column BETWEEN lo AND hi" (inclusive).
type Between struct {
	Col    string
	Lo, Hi float64
}

// Bind implements Predicate: column >= lo AND column <= hi, literally.
func (p *Between) Bind(r *Relation) Selection {
	return (&And{Kids: []Predicate{NewCompare(p.Col, GE, F(p.Lo)), NewCompare(p.Col, LE, F(p.Hi))}}).Bind(r)
}

// String implements Predicate.
func (p *Between) String() string {
	return fmt.Sprintf("%s BETWEEN %g AND %g", p.Col, p.Lo, p.Hi)
}

// And is the conjunction of its children.
type And struct{ Kids []Predicate }

// Bind implements Predicate: each child passes over what the ones before
// it left. The empty conjunction is TRUE.
func (p *And) Bind(r *Relation) Selection {
	kids := make([]Selection, len(p.Kids))
	for i, k := range p.Kids {
		kids[i] = k.Bind(r)
	}
	return func(rows, out []int) []int {
		if len(kids) == 0 {
			out = append(out[:0], rows...)
		}
		for _, k := range kids {
			out = k(rows, out)
			rows = out
		}
		return out
	}
}

// String implements Predicate.
func (p *And) String() string { return joinPreds(p.Kids, " AND ") }

// Or is the disjunction of its children.
type Or struct{ Kids []Predicate }

// Bind implements Predicate, by De Morgan: NOT (NOT k1 AND NOT k2 ...),
// so each child sees only the rows no earlier child took.
func (p *Or) Bind(r *Relation) Selection {
	nots := make([]Predicate, len(p.Kids))
	for i, k := range p.Kids {
		nots[i] = &Not{Kid: k}
	}
	return (&Not{Kid: &And{Kids: nots}}).Bind(r)
}

// String implements Predicate.
func (p *Or) String() string { return joinPreds(p.Kids, " OR ") }

// Not negates its child.
type Not struct{ Kid Predicate }

// Bind implements Predicate.
func (p *Not) Bind(r *Relation) Selection {
	kid := p.Kid.Bind(r)
	var hit []int
	return func(rows, out []int) []int {
		hit = kid(rows, hit)
		return without(rows, hit, out)
	}
}

// String implements Predicate.
func (p *Not) String() string { return "NOT (" + p.Kid.String() + ")" }

// FuncPred wraps an arbitrary per-tuple function as a Predicate. It is
// used by the PaQL compiler for conditions (e.g. arithmetic comparisons)
// that the structured predicate types do not cover.
type FuncPred struct {
	// Fn resolves whatever the function reads against r and returns the
	// per-row test.
	Fn   func(r *Relation) func(row int) bool
	Desc string
}

// Bind implements Predicate.
func (p *FuncPred) Bind(r *Relation) Selection { return selectIf(p.Fn(r)) }

// String implements Predicate.
func (p *FuncPred) String() string {
	if p.Desc == "" {
		return "<func>"
	}
	return p.Desc
}

// True is the always-true predicate.
type True struct{}

// Bind implements Predicate.
func (True) Bind(r *Relation) Selection { return (&And{}).Bind(r) }

// String implements Predicate.
func (True) String() string { return "TRUE" }

func joinPreds(kids []Predicate, sep string) string {
	parts := make([]string, len(kids))
	for i, k := range kids {
		parts[i] = "(" + k.String() + ")"
	}
	return strings.Join(parts, sep)
}
