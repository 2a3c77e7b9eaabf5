package store

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"

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

// --- primitives --------------------------------------------------------

// enc appends the format's primitives to one byte slice. A writer that
// knows its payload's size makes b at that capacity, so no write grows it.
type enc struct{ b []byte }

func (e *enc) uvarint(v uint64) { e.b = binary.AppendUvarint(e.b, v) }

func (e *enc) varint(v int64) { e.b = binary.AppendVarint(e.b, v) }

func (e *enc) f64(v float64) { e.b = binary.LittleEndian.AppendUint64(e.b, math.Float64bits(v)) }

func (e *enc) str(s string) {
	e.uvarint(uint64(len(s)))
	e.b = append(e.b, s...)
}

// uvarintLen is the number of bytes enc.uvarint writes for v.
func uvarintLen(v uint64) int { return (bits.Len64(v|1) + 6) / 7 }

// varintLen is the number of bytes enc.varint writes for v (zig-zag,
// as binary.AppendVarint).
func varintLen(v int64) int { return uvarintLen(uint64(v<<1) ^ uint64(v>>63)) }

// strLen is the number of bytes enc.str writes for s.
func strLen(s string) int { return uvarintLen(uint64(len(s))) + len(s) }

// dec is a cursor over a payload: b is what is left to read. The first
// malformed read records err (ErrCorrupt) and empties b, so every read
// after it fails too and returns zero: a decoder checks err before it
// allocates from a decoded count, bounds its loops by it, and returns it
// at the end.
type dec struct {
	b   []byte
	err error
}

func (d *dec) corrupt(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf("%w: %s", ErrCorrupt, fmt.Sprintf(format, args...))
	}
	d.b = nil
}

func (d *dec) uvarint() uint64 {
	v, n := binary.Uvarint(d.b)
	if n <= 0 {
		d.corrupt("truncated uvarint")
		return 0
	}
	d.b = d.b[n:]
	return v
}

func (d *dec) varint() int64 {
	v, n := binary.Varint(d.b)
	if n <= 0 {
		d.corrupt("truncated varint")
		return 0
	}
	d.b = d.b[n:]
	return v
}

func (d *dec) f64() float64 {
	if len(d.b) < 8 {
		d.corrupt("truncated float")
		return 0
	}
	v := math.Float64frombits(binary.LittleEndian.Uint64(d.b))
	d.b = d.b[8:]
	return v
}

func (d *dec) str() string {
	n := d.uvarint()
	if n > uint64(len(d.b)) {
		d.corrupt("string of %d bytes exceeds remaining payload", n)
		return ""
	}
	s := string(d.b[:n])
	d.b = d.b[n:]
	return s
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

func (d *dec) cell(t relation.Type) relation.Value {
	switch t {
	case relation.Float:
		return relation.F(d.f64())
	case relation.Int:
		return relation.I(d.varint())
	default:
		return relation.S(d.str())
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

func (d *dec) row(schema relation.Schema) []relation.Value {
	vals := make([]relation.Value, schema.Len())
	for i := range vals {
		vals[i] = d.cell(schema.Col(i).Type)
	}
	return vals
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
	e := &enc{b: []byte{byte(rec.Kind)}}
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
	return e.b, nil
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
	d := &dec{b: payload[1:]}
	preVersion, count = d.uvarint(), d.uvarint()
	if count > maxBatchRows {
		d.corrupt("batch claims %d rows", count)
	}
	return kind, preVersion, count, d.b, d.err
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
	d := &dec{b: body}
	for i := uint64(0); i < count && d.err == nil; i++ {
		if hasIdx {
			rec.Indices = append(rec.Indices, int(d.uvarint()))
		}
		if hasRows {
			rec.Rows = append(rec.Rows, d.row(schema))
		}
	}
	if len(d.b) != 0 {
		d.corrupt("%d trailing bytes after %s record", len(d.b), rec.Kind)
	}
	if d.err != nil {
		return nil, d.err
	}
	return rec, nil
}
