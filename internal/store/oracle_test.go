package store

// The codec as it was before it wrote into one pre-sized slice and read
// columns straight into typed slices: the snapshot encoder and decoder
// verbatim, over the primitives they were written against (the types
// renamed bufEnc and readerDec, the functions oracleEncodeSnapshot and
// oracleDecodeSnapshot). TestSnapshotEncodingMatchesOracle and
// FuzzDecodeSnapshot hold the production codec to them.

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"math"

	"repro/internal/partition"
	"repro/internal/relation"
)

type bufEnc struct{ b bytes.Buffer }

func (e *bufEnc) uvarint(v uint64) {
	var tmp [binary.MaxVarintLen64]byte
	e.b.Write(tmp[:binary.PutUvarint(tmp[:], v)])
}

func (e *bufEnc) varint(v int64) {
	var tmp [binary.MaxVarintLen64]byte
	e.b.Write(tmp[:binary.PutVarint(tmp[:], v)])
}

func (e *bufEnc) f64(v float64) {
	var tmp [8]byte
	binary.LittleEndian.PutUint64(tmp[:], math.Float64bits(v))
	e.b.Write(tmp[:])
}

func (e *bufEnc) str(s string) {
	e.uvarint(uint64(len(s)))
	e.b.WriteString(s)
}

type readerDec struct{ r *bytes.Reader }

func (d *readerDec) uvarint() (uint64, error) {
	v, err := binary.ReadUvarint(d.r)
	if err != nil {
		return 0, fmt.Errorf("%w: truncated uvarint", ErrCorrupt)
	}
	return v, nil
}

func (d *readerDec) varint() (int64, error) {
	v, err := binary.ReadVarint(d.r)
	if err != nil {
		return 0, fmt.Errorf("%w: truncated varint", ErrCorrupt)
	}
	return v, nil
}

func (d *readerDec) f64() (float64, error) {
	var tmp [8]byte
	if _, err := io.ReadFull(d.r, tmp[:]); err != nil {
		return 0, fmt.Errorf("%w: truncated float", ErrCorrupt)
	}
	return math.Float64frombits(binary.LittleEndian.Uint64(tmp[:])), nil
}

func (d *readerDec) str() (string, error) {
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

func (d *readerDec) cell(t relation.Type) (relation.Value, error) {
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

// oracleEncodeSnapshot is the row-wise encodeSnapshot.
func oracleEncodeSnapshot(s *Snapshot) ([]byte, error) {
	rel := s.Rel
	if rel == nil {
		return nil, fmt.Errorf("store: snapshot of nil relation")
	}
	e := &bufEnc{}
	e.uvarint(s.Version)
	e.str(rel.Name())
	schema := rel.Schema()
	e.uvarint(uint64(schema.Len()))
	for i := 0; i < schema.Len(); i++ {
		col := schema.Col(i)
		e.str(col.Name)
		e.b.WriteByte(byte(col.Type))
	}
	if rel.Live() != rel.Len() {
		return nil, fmt.Errorf("store: snapshot of uncompacted relation (%d tombstones)", rel.Len()-rel.Live())
	}
	e.uvarint(uint64(rel.Len()))
	// Column-major, matching the relation's storage: one typed run per
	// column compresses and decodes better than row-major boxing.
	for c := 0; c < schema.Len(); c++ {
		switch schema.Col(c).Type {
		case relation.Float:
			for r := 0; r < rel.Len(); r++ {
				e.f64(rel.Float(r, c))
			}
		case relation.Int:
			col := rel.IntColumn(c)
			for r := 0; r < rel.Len(); r++ {
				e.varint(col[r])
			}
		default:
			for r := 0; r < rel.Len(); r++ {
				e.str(rel.Str(r, c))
			}
		}
	}
	e.uvarint(uint64(len(s.Parts)))
	for _, p := range s.Parts {
		e.uvarint(uint64(len(p.Attrs)))
		for _, a := range p.Attrs {
			e.str(a)
		}
		e.uvarint(uint64(p.Tau))
		e.f64(p.Omega)
		e.varint(int64(p.Workers))
		e.uvarint(uint64(len(p.Groups)))
		for _, g := range p.Groups {
			e.uvarint(uint64(len(g.Rows)))
			prev := 0
			for _, r := range g.Rows {
				// Delta-encode the sorted member list.
				e.uvarint(uint64(r - prev))
				prev = r
			}
			e.uvarint(uint64(len(g.Centroid)))
			for _, c := range g.Centroid {
				e.f64(c)
			}
			e.f64(g.Radius)
		}
		for _, v := range []uint64{p.Stats.Inserts, p.Stats.Deletes, p.Stats.Updates,
			p.Stats.Splits, p.Stats.Merges, p.Stats.Heals, p.Stats.Rebuilds} {
			e.uvarint(v)
		}
	}
	return e.b.Bytes(), nil
}

// oracleDecodeSnapshot is the row-wise decodeSnapshot.
func oracleDecodeSnapshot(payload []byte) (*Snapshot, error) {
	d := &readerDec{r: bytes.NewReader(payload)}
	s := &Snapshot{}
	var err error
	if s.Version, err = d.uvarint(); err != nil {
		return nil, err
	}
	name, err := d.str()
	if err != nil {
		return nil, err
	}
	ncols, err := d.uvarint()
	if err != nil {
		return nil, err
	}
	if ncols > 1<<16 {
		return nil, fmt.Errorf("%w: snapshot claims %d columns", ErrCorrupt, ncols)
	}
	cols := make([]relation.Column, ncols)
	for i := range cols {
		if cols[i].Name, err = d.str(); err != nil {
			return nil, err
		}
		t, err2 := d.r.ReadByte()
		if err2 != nil {
			return nil, fmt.Errorf("%w: truncated column type", ErrCorrupt)
		}
		switch relation.Type(t) {
		case relation.Float, relation.Int, relation.String:
			cols[i].Type = relation.Type(t)
		default:
			return nil, fmt.Errorf("%w: unknown column type %d", ErrCorrupt, t)
		}
	}
	nrows, err := d.uvarint()
	if err != nil {
		return nil, err
	}
	if nrows > maxBatchRows {
		return nil, fmt.Errorf("%w: snapshot claims %d rows", ErrCorrupt, nrows)
	}
	// Every cell costs at least one payload byte, so a row count the
	// remaining payload cannot possibly hold is corruption — caught
	// BEFORE the value grid is allocated, or a ~60-byte hostile file
	// could demand gigabytes. (ncols ≤ 2^16 and nrows ≤ 2^28: no
	// overflow.)
	if ncols > 0 && nrows*ncols > uint64(d.r.Len()) {
		return nil, fmt.Errorf("%w: snapshot claims %d×%d cells but only %d payload bytes remain",
			ErrCorrupt, nrows, ncols, d.r.Len())
	}
	for _, c := range cols {
		if c.Name == "" {
			return nil, fmt.Errorf("%w: empty column name", ErrCorrupt)
		}
	}
	// A duplicate column name (case-insensitive) in a corrupt or hostile
	// snapshot surfaces as a schema error; report it as corruption.
	schema, err := relation.NewSchema(cols...)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	rel := relation.New(name, schema)
	// Decode column-major into value grids, then append row-wise.
	grid := make([][]relation.Value, nrows)
	for r := range grid {
		grid[r] = make([]relation.Value, ncols)
	}
	for c := uint64(0); c < ncols; c++ {
		for r := uint64(0); r < nrows; r++ {
			v, err := d.cell(cols[c].Type)
			if err != nil {
				return nil, err
			}
			grid[r][c] = v
		}
	}
	for _, vals := range grid {
		if err := rel.Append(vals...); err != nil {
			return nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
		}
	}
	// The one line changed: relation.RestoreVersion is gone, so the
	// relation keeps the version its Appends counted, and the fuzzer reads
	// the persisted version from Snapshot.Version.
	s.Rel = rel

	nparts, err := d.uvarint()
	if err != nil {
		return nil, err
	}
	if nparts > 1<<16 {
		return nil, fmt.Errorf("%w: snapshot claims %d partitionings", ErrCorrupt, nparts)
	}
	for pi := uint64(0); pi < nparts; pi++ {
		var ps PartState
		nattrs, err := d.uvarint()
		if err != nil {
			return nil, err
		}
		if nattrs > ncols {
			return nil, fmt.Errorf("%w: partitioning claims %d attributes", ErrCorrupt, nattrs)
		}
		for a := uint64(0); a < nattrs; a++ {
			s, err := d.str()
			if err != nil {
				return nil, err
			}
			ps.Attrs = append(ps.Attrs, s)
		}
		tau, err := d.uvarint()
		if err != nil {
			return nil, err
		}
		ps.Tau = int(tau)
		if ps.Omega, err = d.f64(); err != nil {
			return nil, err
		}
		workers, err := d.varint()
		if err != nil {
			return nil, err
		}
		ps.Workers = int(workers)
		ngroups, err := d.uvarint()
		if err != nil {
			return nil, err
		}
		if ngroups > nrows+1 {
			return nil, fmt.Errorf("%w: partitioning claims %d groups over %d rows", ErrCorrupt, ngroups, nrows)
		}
		for gi := uint64(0); gi < ngroups; gi++ {
			var g partition.Group
			gn, err := d.uvarint()
			if err != nil {
				return nil, err
			}
			if gn > nrows {
				return nil, fmt.Errorf("%w: group claims %d rows", ErrCorrupt, gn)
			}
			prev := uint64(0)
			for ri := uint64(0); ri < gn; ri++ {
				delta, err := d.uvarint()
				if err != nil {
					return nil, err
				}
				prev += delta
				if prev >= nrows {
					return nil, fmt.Errorf("%w: group member %d out of range [0, %d)", ErrCorrupt, prev, nrows)
				}
				g.Rows = append(g.Rows, int(prev))
			}
			cn, err := d.uvarint()
			if err != nil {
				return nil, err
			}
			if cn != nattrs {
				return nil, fmt.Errorf("%w: centroid of %d dims for %d attributes", ErrCorrupt, cn, nattrs)
			}
			for ci := uint64(0); ci < cn; ci++ {
				v, err := d.f64()
				if err != nil {
					return nil, err
				}
				g.Centroid = append(g.Centroid, v)
			}
			if g.Radius, err = d.f64(); err != nil {
				return nil, err
			}
			ps.Groups = append(ps.Groups, g)
		}
		for _, field := range []*uint64{&ps.Stats.Inserts, &ps.Stats.Deletes, &ps.Stats.Updates,
			&ps.Stats.Splits, &ps.Stats.Merges, &ps.Stats.Heals, &ps.Stats.Rebuilds} {
			if *field, err = d.uvarint(); err != nil {
				return nil, err
			}
		}
		s.Parts = append(s.Parts, ps)
	}
	if d.r.Len() != 0 {
		return nil, fmt.Errorf("%w: %d trailing bytes after snapshot", ErrCorrupt, d.r.Len())
	}
	return s, nil
}
