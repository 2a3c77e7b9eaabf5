package store

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"runtime"
	"slices"
	"testing"

	"repro/internal/partition"
	"repro/internal/relation"
	"repro/internal/reltest"
	"repro/internal/workload"
)

// warmSnapshot is n Galaxy rows and the partitioning a SketchRefine
// session builds over them: the workload's attributes, τ a tenth of the
// rows.
func warmSnapshot(tb testing.TB, n int, seed int64) *Snapshot {
	tb.Helper()
	rel := workload.Galaxy(n, seed)
	queries, err := workload.GalaxyQueries(rel)
	if err != nil {
		tb.Fatal(err)
	}
	p, err := partition.Build(rel, partition.Options{Attrs: workload.WorkloadAttrs(queries), SizeThreshold: n/10 + 1})
	if err != nil {
		tb.Fatal(err)
	}
	return &Snapshot{Version: rel.Version(), Rel: rel, Parts: []PartState{{
		Attrs: p.Attrs, Tau: p.Tau, Omega: p.Omega, Workers: p.Workers, Groups: p.Groups,
		Stats: partition.MaintStats{Inserts: 3, Deletes: 1, Splits: 2, Rebuilds: 1},
	}}}
}

// codecFixtures are the snapshots both encoders must write alike.
func codecFixtures(t *testing.T) map[string]*Snapshot {
	golden := storeFixtureRel(t, 4)
	if err := golden.Set(1, 2, relation.S("β Ori")); err != nil {
		t.Fatal(err)
	}
	if err := golden.Set(2, 2, relation.S("")); err != nil {
		t.Fatal(err)
	}
	floats := relation.New("floats", reltest.Schema(relation.Column{Name: "x", Type: relation.Float}))
	for _, bits := range []uint64{
		0x7ff8000000000001, 0xfff8000000000000, 0x7ff0000000000001, 0x7ff4000000000000, // NaNs, a signalling one among them
		0x8000000000000000, 0x7ff0000000000000, 0xfff0000000000000, // −0, +Inf, −Inf
	} {
		reltest.Append(floats, relation.F(math.Float64frombits(bits)))
	}
	ints := relation.New("ints", reltest.Schema(relation.Column{Name: "k", Type: relation.Int}))
	for _, v := range []int64{math.MinInt64, math.MaxInt64, 0, -1, 1, -64, 64} {
		reltest.Append(ints, relation.I(v))
	}
	return map[string]*Snapshot{
		"galaxy20k":  warmSnapshot(t, 20000, 7),
		"tpch5k":     {Version: 5000, Rel: workload.TPCH(5000, 7)},
		"golden":     {Version: 4, Rel: golden, Parts: []PartState{{Attrs: []string{"mag"}, Tau: 2, Omega: 0.5, Workers: 1, Groups: []partition.Group{{Rows: []int{0, 1, 2, 3}, Centroid: []float64{0.375}, Radius: 0.375}}}}},
		"floats":     {Version: 7, Rel: floats, Parts: []PartState{{Attrs: []string{"x"}, Omega: math.NaN(), Workers: -1, Groups: []partition.Group{{Rows: []int{0, 6}, Centroid: []float64{math.Inf(-1)}, Radius: math.Copysign(0, -1)}}}}},
		"ints":       {Version: math.MaxUint64, Rel: ints},
		"zero rows":  {Version: 0, Rel: relation.New("empty", golden.Schema())},
		"no columns": {Version: 1, Rel: relation.New("bare", reltest.Schema())},
	}
}

// TestSnapshotEncodingMatchesOracle holds encodeSnapshot to the encoder
// it replaced, byte for byte, and to one buffer: the payload fills the
// capacity it was made with.
func TestSnapshotEncodingMatchesOracle(t *testing.T) {
	for name, s := range codecFixtures(t) {
		got, err := encodeSnapshot(s)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		want, err := oracleEncodeSnapshot(s)
		if err != nil {
			t.Fatalf("%s: oracle: %v", name, err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s: %d bytes differ from the oracle's %d", name, len(got), len(want))
		}
		if len(got) != cap(got) {
			t.Errorf("%s: payload of %d bytes in a buffer of %d", name, len(got), cap(got))
		}
		back, err := decodeSnapshot(got)
		if err != nil {
			t.Fatalf("%s: decode: %v", name, err)
		}
		if err := snapshotDiff(back, s); err != nil {
			t.Errorf("%s: round trip: %v", name, err)
		}
	}
}

// snapshotDiff names the first way two snapshots differ: version,
// relation name and schema, a cell (a float's bits, so NaN payloads and
// −0 count), or a partitioning's attributes, parameters, groups (member
// rows, centroid and radius bits) or counters.
func snapshotDiff(a, b *Snapshot) error {
	if a.Version != b.Version {
		return fmt.Errorf("version %d vs %d", a.Version, b.Version)
	}
	ra, rb := a.Rel, b.Rel
	if ra.Name() != rb.Name() || !ra.Schema().Equal(rb.Schema()) || ra.Len() != rb.Len() || ra.Live() != rb.Live() {
		return fmt.Errorf("relation %q %s of %d rows vs %q %s of %d", ra.Name(), ra.Schema(), ra.Len(), rb.Name(), rb.Schema(), rb.Len())
	}
	for c := 0; c < ra.Schema().Len(); c++ {
		for r := 0; r < ra.Len(); r++ {
			va, vb := ra.Value(r, c), rb.Value(r, c)
			if math.Float64bits(ra.Float(r, c)) != math.Float64bits(rb.Float(r, c)) || va.String() != vb.String() {
				return fmt.Errorf("cell (%d,%d): %v vs %v", r, c, va, vb)
			}
		}
	}
	if len(a.Parts) != len(b.Parts) {
		return fmt.Errorf("%d partitionings vs %d", len(a.Parts), len(b.Parts))
	}
	same := func(u, v float64) bool { return math.Float64bits(u) == math.Float64bits(v) }
	for i, pa := range a.Parts {
		pb := b.Parts[i]
		if !slices.Equal(pa.Attrs, pb.Attrs) || pa.Tau != pb.Tau || !same(pa.Omega, pb.Omega) ||
			pa.Workers != pb.Workers || pa.Stats != pb.Stats || len(pa.Groups) != len(pb.Groups) {
			return fmt.Errorf("partitioning %d: %+v vs %+v", i, pa, pb)
		}
		for g, ga := range pa.Groups {
			gb := pb.Groups[g]
			if !slices.Equal(ga.Rows, gb.Rows) || !slices.EqualFunc(ga.Centroid, gb.Centroid, same) || !same(ga.Radius, gb.Radius) {
				return fmt.Errorf("partitioning %d, group %d: %+v vs %+v", i, g, ga, gb)
			}
		}
	}
	return nil
}

// FuzzDecodeSnapshot holds decodeSnapshot to the row-wise decoder it
// replaced: on any payload both give the same snapshot, or both
// ErrCorrupt. The decoded relation also carries the persisted version.
func FuzzDecodeSnapshot(f *testing.F) {
	golden := unhex(f, goldenSnapshot)[len(snapMagic)+framedHeader:]
	f.Add(golden)
	for i := range golden {
		bumped := slices.Clone(golden)
		bumped[i]++ // a count, a type, a length, a delta or a cell one off
		f.Add(bumped)
	}
	s := warmSnapshot(f, 2000, 3)
	payload, err := encodeSnapshot(s)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(payload)
	// The payload cut at the start of each column's run, and at its end.
	e := &enc{}
	e.uvarint(s.Version)
	e.str(s.Rel.Name())
	schema := s.Rel.Schema()
	e.uvarint(uint64(schema.Len()))
	for c := 0; c < schema.Len(); c++ {
		e.str(schema.Col(c).Name)
		e.b = append(e.b, byte(schema.Col(c).Type))
	}
	e.uvarint(uint64(s.Rel.Len()))
	cut := len(e.b)
	for c := 0; c < schema.Len(); c++ {
		f.Add(payload[:cut])
		switch schema.Col(c).Type {
		case relation.Float:
			cut += 8 * s.Rel.Len()
		default:
			for _, v := range s.Rel.IntColumn(c) {
				cut += varintLen(v)
			}
		}
	}
	f.Add(payload[:cut])
	f.Add(append(payload, 0)) // one trailing byte

	f.Fuzz(func(t *testing.T, payload []byte) {
		// The oracle allocates a slice per row before it reads a cell, and
		// only the cells bound its row count; a snapshot of no columns that
		// claims more rows than it has bytes left would cost it gigabytes,
		// and the decoder refuses it (a row costs a byte at the least), so
		// such a payload is held to that refusal alone.
		h := &dec{b: payload}
		h.uvarint()
		h.str()
		if h.uvarint() == 0 && h.uvarint() > uint64(len(h.b)) {
			if _, err := decodeSnapshot(payload); !errors.Is(err, ErrCorrupt) {
				t.Fatalf("zero-column snapshot claiming more rows than bytes: %v, want ErrCorrupt", err)
			}
			return
		}
		got, err := decodeSnapshot(payload)
		want, oerr := oracleDecodeSnapshot(payload)
		switch {
		case err != nil || oerr != nil:
			if !errors.Is(err, ErrCorrupt) || !errors.Is(oerr, ErrCorrupt) {
				t.Fatalf("decode: %v; oracle: %v", err, oerr)
			}
		case got.Rel.Version() != got.Version:
			t.Fatalf("relation at version %d, snapshot at %d", got.Rel.Version(), got.Version)
		default:
			if err := snapshotDiff(got, want); err != nil {
				t.Fatal(err)
			}
		}
	})
}

// TestDecodeSnapshotAllocationsIndependentOfRows: a snapshot decode
// allocates per column, not per row, so 2 000 and 20 000 numeric rows
// cost the same number of allocations. (A TEXT cell allocates its
// string, as any decode into Go strings must.)
func TestDecodeSnapshotAllocationsIndependentOfRows(t *testing.T) {
	allocs := func(n int) float64 {
		rel := workload.Galaxy(n, 5)
		payload, err := encodeSnapshot(&Snapshot{Version: rel.Version(), Rel: rel})
		if err != nil {
			t.Fatal(err)
		}
		return testing.AllocsPerRun(5, func() {
			if _, err := decodeSnapshot(payload); err != nil {
				t.Fatal(err)
			}
		})
	}
	if small, large := allocs(2000), allocs(20000); small != large {
		t.Fatalf("decode made %v allocations at 2 000 rows and %v at 20 000", small, large)
	}
}

// TestDecodedColumnsHaveAppendHeadroom: a decoded snapshot's columns —
// integer, float and text — carry the capacity a CSV load gives them, so
// the first insert after recovery copies no column: the numeric columns'
// backing arrays stay where they were and the Append allocates nothing.
func TestDecodedColumnsHaveAppendHeadroom(t *testing.T) {
	for _, n := range []int{1000, 100_000} {
		payload, err := encodeSnapshot(&Snapshot{Version: uint64(n), Rel: storeFixtureRel(t, n)})
		if err != nil {
			t.Fatal(err)
		}
		got, err := decodeSnapshot(payload)
		if err != nil {
			t.Fatal(err)
		}
		rel := got.Rel
		ids, mags := &rel.IntColumn(0)[0], &rel.FloatColumn(1)[0]
		row := []relation.Value{relation.I(int64(n)), relation.F(1.5), relation.S("new")}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		err = rel.Append(row...)
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		if allocs := after.Mallocs - before.Mallocs; allocs != 0 {
			t.Errorf("%d rows: the first Append after the decode allocated %d objects", n, allocs)
		}
		if &rel.IntColumn(0)[0] != ids || &rel.FloatColumn(1)[0] != mags {
			t.Errorf("%d rows: the first Append after the decode copied a numeric column", n)
		}
	}
}

// TestDecodeSnapshotRefusesRowsThePayloadCannotHold: a payload that
// claims more cells than it has bytes is ErrCorrupt before a column is
// allocated, so a few hostile bytes cannot make the decoder allocate
// megabytes.
func TestDecodeSnapshotRefusesRowsThePayloadCannotHold(t *testing.T) {
	for _, typ := range []relation.Type{relation.Float, relation.Int, relation.String} {
		e := &enc{}
		e.uvarint(1)
		e.str("r")
		e.uvarint(1)
		e.str("k")
		e.b = append(e.b, byte(typ))
		e.uvarint(1 << 20)
		e.b = append(e.b, 1, 2, 3, 4)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := decodeSnapshot(e.b)
		runtime.ReadMemStats(&after)
		if !errors.Is(err, ErrCorrupt) {
			t.Fatalf("%s: err = %v, want ErrCorrupt", typ, err)
		}
		if n := after.TotalAlloc - before.TotalAlloc; n > 64<<10 {
			t.Fatalf("%s: decoding %d bytes that claim 2^20 rows allocated %d bytes", typ, len(e.b), n)
		}
	}
}

// TestSnapshotWithNoColumnsHoldsNoRows: rows of no cells cost the
// payload nothing, so the encoder refuses them and the decoder takes a
// row count past the remaining bytes for corruption, before it
// allocates anything per row.
func TestSnapshotWithNoColumnsHoldsNoRows(t *testing.T) {
	bare := relation.New("bare", reltest.Schema())
	reltest.Append(bare)
	if _, err := encodeSnapshot(&Snapshot{Version: 1, Rel: bare}); err == nil {
		t.Fatal("encoded a row with no columns")
	}
	e := &enc{}
	e.uvarint(1)
	e.str("r")
	e.uvarint(0)
	e.uvarint(1 << 27)
	e.b = append(e.b, 1, 2, 3, 4)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := decodeSnapshot(e.b)
	runtime.ReadMemStats(&after)
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("err = %v, want ErrCorrupt", err)
	}
	if n := after.TotalAlloc - before.TotalAlloc; n > 64<<10 {
		t.Fatalf("decoding %d bytes that claim 2^27 rows of no columns allocated %d bytes", len(e.b), n)
	}
}

// BenchmarkSnapshotCodec times the snapshot a durable SketchRefine
// session writes when it opens and reads when it recovers: 200 000
// Galaxy rows and their partitioning.
func BenchmarkSnapshotCodec(b *testing.B) {
	s := warmSnapshot(b, 200_000, 17)
	payload, err := encodeSnapshot(s)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("galaxy200k/encode", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(int64(len(payload)))
		for i := 0; i < b.N; i++ {
			if _, err := encodeSnapshot(s); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("galaxy200k/decode", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(int64(len(payload)))
		for i := 0; i < b.N; i++ {
			if _, err := decodeSnapshot(payload); err != nil {
				b.Fatal(err)
			}
		}
	})
}
