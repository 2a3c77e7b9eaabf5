package store

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"math"

	"repro/internal/relation"
)

// Kind tags a WAL record.
type Kind byte

// The mutation-record kinds. Numbering is part of the on-disk format.
const (
	KindInsert Kind = 1
	KindDelete Kind = 2
	KindUpdate Kind = 3
)

func (k Kind) String() string {
	switch k {
	case KindInsert:
		return "insert"
	case KindDelete:
		return "delete"
	case KindUpdate:
		return "update"
	default:
		return fmt.Sprintf("Kind(%d)", byte(k))
	}
}

// Record is one decoded WAL record: a mutation batch plus the dataset
// version it was applied at. PreVersion orders replay — a record whose
// PreVersion predates the snapshot's version was already folded into
// the snapshot (the crash window between snapshot rename and WAL
// truncation) and is skipped; one that does not line up with the
// recovering relation's version is corruption.
type Record struct {
	Kind       Kind
	PreVersion uint64
	// Rows holds the inserted rows (KindInsert) or the new cell values
	// of updated rows (KindUpdate), in batch order.
	Rows [][]relation.Value
	// Indices holds the tombstoned row indices (KindDelete) or the
	// updated row indices (KindUpdate).
	Indices []int
}

// Ops returns the number of row mutations the record carries.
func (r *Record) Ops() int {
	if r.Kind == KindDelete {
		return len(r.Indices)
	}
	return len(r.Rows)
}

// fields reports which of Record's two slices a kind's batch entries
// carry, in wire order (row index, then cells); ok is false for a kind
// this format does not define.
func (k Kind) fields() (indices, rows, ok bool) {
	switch k {
	case KindInsert:
		return false, true, true
	case KindDelete:
		return true, false, true
	case KindUpdate:
		return true, true, true
	}
	return false, false, false
}

// --- primitive writers -------------------------------------------------

type enc struct{ b bytes.Buffer }

func (e *enc) uvarint(v uint64) {
	var tmp [binary.MaxVarintLen64]byte
	e.b.Write(tmp[:binary.PutUvarint(tmp[:], v)])
}

func (e *enc) varint(v int64) {
	var tmp [binary.MaxVarintLen64]byte
	e.b.Write(tmp[:binary.PutVarint(tmp[:], v)])
}

func (e *enc) f64(v float64) {
	var tmp [8]byte
	binary.LittleEndian.PutUint64(tmp[:], math.Float64bits(v))
	e.b.Write(tmp[:])
}

func (e *enc) str(s string) {
	e.uvarint(uint64(len(s)))
	e.b.WriteString(s)
}

type dec struct{ r *bytes.Reader }

func (d *dec) uvarint() (uint64, error) {
	v, err := binary.ReadUvarint(d.r)
	if err != nil {
		return 0, fmt.Errorf("%w: truncated uvarint", ErrCorrupt)
	}
	return v, nil
}

func (d *dec) varint() (int64, error) {
	v, err := binary.ReadVarint(d.r)
	if err != nil {
		return 0, fmt.Errorf("%w: truncated varint", ErrCorrupt)
	}
	return v, nil
}

func (d *dec) f64() (float64, error) {
	var tmp [8]byte
	if _, err := io.ReadFull(d.r, tmp[:]); err != nil {
		return 0, fmt.Errorf("%w: truncated float", ErrCorrupt)
	}
	return math.Float64frombits(binary.LittleEndian.Uint64(tmp[:])), nil
}

func (d *dec) str() (string, error) {
	n, err := d.uvarint()
	if err != nil {
		return "", err
	}
	if n > uint64(d.r.Len()) {
		return "", fmt.Errorf("%w: string of %d bytes exceeds remaining payload", ErrCorrupt, n)
	}
	buf := make([]byte, n)
	if _, err := io.ReadFull(d.r, buf); err != nil {
		return "", fmt.Errorf("%w: truncated string", ErrCorrupt)
	}
	return string(buf), nil
}

// --- typed cells -------------------------------------------------------

// putCell encodes one cell under its column type (the schema is the
// codec's shared context; cells carry no per-value type tag).
func (e *enc) putCell(t relation.Type, v relation.Value) error {
	switch t {
	case relation.Float:
		f, err := v.Float()
		if err != nil {
			return err
		}
		e.f64(f)
	case relation.Int:
		n, err := v.Int()
		if err != nil {
			return err
		}
		e.varint(n)
	default:
		s, err := v.Str()
		if err != nil {
			return err
		}
		e.str(s)
	}
	return nil
}

func (d *dec) cell(t relation.Type) (relation.Value, error) {
	switch t {
	case relation.Float:
		f, err := d.f64()
		if err != nil {
			return relation.Value{}, err
		}
		return relation.F(f), nil
	case relation.Int:
		n, err := d.varint()
		if err != nil {
			return relation.Value{}, err
		}
		return relation.I(n), nil
	default:
		s, err := d.str()
		if err != nil {
			return relation.Value{}, err
		}
		return relation.S(s), nil
	}
}

func (e *enc) putRow(schema relation.Schema, vals []relation.Value) error {
	if len(vals) != schema.Len() {
		return fmt.Errorf("store: row has %d values, schema has %d columns", len(vals), schema.Len())
	}
	for i, v := range vals {
		if err := e.putCell(schema.Col(i).Type, v); err != nil {
			return fmt.Errorf("store: column %q: %w", schema.Col(i).Name, err)
		}
	}
	return nil
}

func (d *dec) row(schema relation.Schema) ([]relation.Value, error) {
	vals := make([]relation.Value, schema.Len())
	for i := range vals {
		v, err := d.cell(schema.Col(i).Type)
		if err != nil {
			return nil, err
		}
		vals[i] = v
	}
	return vals, nil
}

// --- records -----------------------------------------------------------

// maxBatchRows bounds a decoded batch's claimed row count before any
// allocation; a count above it cannot fit in a maxWALRecord payload.
const maxBatchRows = maxWALRecord

// EncodeRecord builds the WAL payload of one mutation batch — the one
// writer of the record format DecodeRecord reads: kind byte, pre-version
// uvarint, batch-count uvarint, then per entry the row index (delete,
// update) and the row's cells under the schema's column types (insert,
// update). A delete ignores the schema.
func EncodeRecord(schema relation.Schema, rec *Record) ([]byte, error) {
	hasIdx, hasRows, ok := rec.Kind.fields()
	if !ok {
		return nil, fmt.Errorf("store: unknown record kind %d", byte(rec.Kind))
	}
	if hasIdx && hasRows && len(rec.Indices) != len(rec.Rows) {
		return nil, fmt.Errorf("store: %s of %d rows with %d value tuples", rec.Kind, len(rec.Indices), len(rec.Rows))
	}
	n := rec.Ops()
	e := &enc{}
	e.b.WriteByte(byte(rec.Kind))
	e.uvarint(rec.PreVersion)
	e.uvarint(uint64(n))
	for i := 0; i < n; i++ {
		if hasIdx {
			if rec.Indices[i] < 0 {
				return nil, fmt.Errorf("store: %s of negative row %d", rec.Kind, rec.Indices[i])
			}
			e.uvarint(uint64(rec.Indices[i]))
		}
		if hasRows {
			if err := e.putRow(schema, rec.Rows[i]); err != nil {
				return nil, err
			}
		}
	}
	return e.b.Bytes(), nil
}

// recordHeader parses the schema-independent head every record starts
// with — kind, pre-version, batch count — and returns the entries' bytes
// after it. It is the one parser of those three fields: DecodeRecord
// continues from body, OffsetOfVersion needs nothing more.
func recordHeader(payload []byte) (kind Kind, preVersion, count uint64, body []byte, err error) {
	if len(payload) == 0 {
		return 0, 0, 0, nil, fmt.Errorf("%w: empty record", ErrCorrupt)
	}
	kind = Kind(payload[0])
	if _, _, ok := kind.fields(); !ok {
		return 0, 0, 0, nil, fmt.Errorf("%w: unknown record kind %d", ErrCorrupt, payload[0])
	}
	body = payload[1:]
	preVersion, n := binary.Uvarint(body)
	if n <= 0 {
		return 0, 0, 0, nil, fmt.Errorf("%w: truncated record pre-version", ErrCorrupt)
	}
	body = body[n:]
	count, n = binary.Uvarint(body)
	if n <= 0 {
		return 0, 0, 0, nil, fmt.Errorf("%w: truncated record batch count", ErrCorrupt)
	}
	if count > maxBatchRows {
		return 0, 0, 0, nil, fmt.Errorf("%w: batch claims %d rows", ErrCorrupt, count)
	}
	return kind, preVersion, count, body[n:], nil
}

// DecodeRecord parses one WAL payload against the schema its rows were
// encoded with. Malformed payloads are ErrCorrupt.
func DecodeRecord(schema relation.Schema, payload []byte) (*Record, error) {
	kind, pre, count, body, err := recordHeader(payload)
	if err != nil {
		return nil, err
	}
	hasIdx, hasRows, _ := kind.fields()
	rec := &Record{Kind: kind, PreVersion: pre}
	d := &dec{r: bytes.NewReader(body)}
	for i := uint64(0); i < count; i++ {
		if hasIdx {
			r, err := d.uvarint()
			if err != nil {
				return nil, err
			}
			rec.Indices = append(rec.Indices, int(r))
		}
		if hasRows {
			vals, err := d.row(schema)
			if err != nil {
				return nil, err
			}
			rec.Rows = append(rec.Rows, vals)
		}
	}
	if d.r.Len() != 0 {
		return nil, fmt.Errorf("%w: %d trailing bytes after %s record", ErrCorrupt, d.r.Len(), rec.Kind)
	}
	return rec, nil
}
