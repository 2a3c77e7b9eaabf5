package relation

import (
	"encoding/csv"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
)

// WriteCSV writes the relation's live rows with a typed header row of
// the form "name:type" (type ∈ {f, i, s}), so a round-trip preserves
// column types. Tombstoned rows are not written: a save/load cycle
// yields the live dataset, not a resurrection of deleted rows (row
// indices are compacted by the reload).
func WriteCSV(r *Relation, w io.Writer) error {
	cw := csv.NewWriter(w)
	header := make([]string, r.Schema().Len())
	for i := 0; i < r.Schema().Len(); i++ {
		col := r.Schema().Col(i)
		tag := "s"
		switch col.Type {
		case Float:
			tag = "f"
		case Int:
			tag = "i"
		}
		header[i] = col.Name + ":" + tag
	}
	if err := cw.Write(header); err != nil {
		return err
	}
	rec := make([]string, r.Schema().Len())
	for row := 0; row < r.Len(); row++ {
		if r.Deleted(row) {
			continue
		}
		for c := 0; c < r.Schema().Len(); c++ {
			switch r.Schema().Col(c).Type {
			case Float:
				rec[c] = strconv.FormatFloat(r.Float(row, c), 'g', -1, 64)
			case Int:
				n, _ := r.Value(row, c).Int() // column type is Int by the switch
				rec[c] = strconv.FormatInt(n, 10)
			default:
				rec[c] = r.Str(row, c)
			}
		}
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// ReadCSV reads a relation written by WriteCSV. Headers without a ":type"
// suffix default to string columns.
func ReadCSV(name string, rd io.Reader) (*Relation, error) {
	cr := csv.NewReader(rd)
	header, err := cr.Read()
	if err != nil {
		return nil, fmt.Errorf("relation: reading CSV header: %w", err)
	}
	cols := make([]Column, len(header))
	seen := make(map[string]bool, len(header))
	for i, h := range header {
		colName, tag := h, "s"
		if j := strings.LastIndexByte(h, ':'); j >= 0 {
			colName, tag = h[:j], h[j+1:]
		}
		if colName == "" {
			return nil, fmt.Errorf("relation: CSV header column %d has an empty name", i+1)
		}
		key := strings.ToLower(colName)
		if seen[key] {
			return nil, fmt.Errorf("relation: duplicate CSV header column %q", colName)
		}
		seen[key] = true
		switch tag {
		case "f":
			cols[i] = Column{Name: colName, Type: Float}
		case "i":
			cols[i] = Column{Name: colName, Type: Int}
		default:
			cols[i] = Column{Name: colName, Type: String}
		}
	}
	schema, err := NewSchema(cols...)
	if err != nil {
		return nil, fmt.Errorf("relation: CSV header: %w", err)
	}
	r := New(name, schema)
	// One record slice and one row of values serve every line: Append
	// keeps neither, and each record's fields are cut from a string of
	// their own, so a string cell stays valid after the next Read.
	cr.ReuseRecord = true
	vals := make([]Value, len(cols))
	for line := 2; ; line++ {
		rec, err := cr.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("relation: reading CSV line %d: %w", line, err)
		}
		for i, field := range rec {
			switch cols[i].Type {
			case Float:
				f, err := strconv.ParseFloat(field, 64)
				if err != nil {
					return nil, fmt.Errorf("relation: line %d column %q: %w", line, cols[i].Name, err)
				}
				vals[i] = F(f)
			case Int:
				n, err := strconv.ParseInt(field, 10, 64)
				if err != nil {
					return nil, fmt.Errorf("relation: line %d column %q: %w", line, cols[i].Name, err)
				}
				vals[i] = I(n)
			default:
				vals[i] = S(field)
			}
		}
		if err := r.Append(vals...); err != nil {
			return nil, err
		}
	}
	return r, nil
}

// SaveCSV writes the relation to the named file.
func SaveCSV(r *Relation, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := WriteCSV(r, f); err != nil {
		return err
	}
	return f.Close()
}

// LoadCSV reads a relation from the named file; the relation is named
// after the file path's base name minus extension.
func LoadCSV(path string) (*Relation, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	base := path
	if i := strings.LastIndexByte(base, '/'); i >= 0 {
		base = base[i+1:]
	}
	if i := strings.LastIndexByte(base, '.'); i > 0 {
		base = base[:i]
	}
	return ReadCSV(base, f)
}
