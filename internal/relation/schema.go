// Package relation implements the in-memory relational substrate that the
// package-query engine runs on. It plays the role PostgreSQL plays in the
// paper: it stores the input relations, evaluates base (per-tuple)
// predicates, and executes the group-by/aggregate queries that offline
// partitioning is built from.
//
// Relations are stored column-major with statically typed columns
// (float64, int64, string). Row subsets are represented as index slices,
// which lets partitions, base relations, and packages share storage with
// the underlying relation instead of copying tuples.
package relation

import (
	"fmt"
	"strings"
)

// Type identifies the storage type of a column.
type Type int

const (
	// Float is a 64-bit floating point column.
	Float Type = iota
	// Int is a 64-bit signed integer column.
	Int
	// String is a text column.
	String
)

// String returns the SQL-ish name of the type.
func (t Type) String() string {
	switch t {
	case Float:
		return "DOUBLE"
	case Int:
		return "BIGINT"
	case String:
		return "TEXT"
	default:
		return fmt.Sprintf("Type(%d)", int(t))
	}
}

// Numeric reports whether the type participates in arithmetic aggregates.
func (t Type) Numeric() bool { return t == Float || t == Int }

// Column describes a single attribute of a relation.
type Column struct {
	Name string
	Type Type
}

// Schema is an ordered list of columns. Column names are case-insensitive
// and must be unique within a schema.
type Schema struct {
	cols  []Column
	index map[string]int
}

// NewSchema builds a schema from the given columns. A duplicated column
// name (names are case-insensitive) is an ErrTypeMismatch-family error:
// schemas reach this constructor from user-controlled surfaces — CSV
// headers, snapshot files, projection lists — so a malformed one must
// surface as a typed error, never crash the process. Tests and
// generators with constant schemas use reltest.Schema or a local
// panicking wrapper.
func NewSchema(cols ...Column) (Schema, error) {
	s := Schema{cols: append([]Column(nil), cols...), index: make(map[string]int, len(cols))}
	for i, c := range cols {
		key := strings.ToLower(c.Name)
		if _, dup := s.index[key]; dup {
			return Schema{}, fmt.Errorf("%w: duplicate column %q in schema", ErrTypeMismatch, c.Name)
		}
		s.index[key] = i
	}
	return s, nil
}

// Len returns the number of columns.
func (s Schema) Len() int { return len(s.cols) }

// Col returns the i-th column.
func (s Schema) Col(i int) Column { return s.cols[i] }

// Lookup returns the index of the named column, or -1 if absent. Matching
// is case-insensitive.
func (s Schema) Lookup(name string) int {
	if i, ok := s.index[strings.ToLower(name)]; ok {
		return i
	}
	return -1
}

// MustLookup is Lookup but returns an error for unknown columns.
func (s Schema) MustLookup(name string) (int, error) {
	i := s.Lookup(name)
	if i < 0 {
		return 0, fmt.Errorf("relation: unknown column %q", name)
	}
	return i, nil
}

// Equal reports whether two schemas have identical column lists.
func (s Schema) Equal(o Schema) bool {
	if len(s.cols) != len(o.cols) {
		return false
	}
	for i := range s.cols {
		if s.cols[i] != o.cols[i] {
			return false
		}
	}
	return true
}

// String renders the schema as "(name TYPE, ...)".
func (s Schema) String() string {
	var b strings.Builder
	b.WriteByte('(')
	for i, c := range s.cols {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "%s %s", c.Name, c.Type)
	}
	b.WriteByte(')')
	return b.String()
}
