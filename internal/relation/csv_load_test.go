package relation

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"strconv"
	"testing"

	"repro/internal/par"
)

// writeTemp writes data to t.csv in a fresh temporary directory, so a
// load names its relation "t".
func writeTemp(t testing.TB, data []byte) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "t.csv")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// relationDiff returns "" when a and b are the same relation as far as
// a load can tell — name, schema, Len, Live, Version, every cell's bits
// and every column's capacity — and the first difference otherwise.
func relationDiff(a, b *Relation) string {
	switch {
	case a.Name() != b.Name():
		return fmt.Sprintf("name %q vs %q", a.Name(), b.Name())
	case !a.Schema().Equal(b.Schema()):
		return fmt.Sprintf("schema %s vs %s", a.Schema(), b.Schema())
	case a.Len() != b.Len() || a.Live() != b.Live() || a.Version() != b.Version():
		return fmt.Sprintf("len/live/version %d/%d/%d vs %d/%d/%d",
			a.Len(), a.Live(), a.Version(), b.Len(), b.Live(), b.Version())
	}
	for c := range a.cols {
		ca, cb := a.cols[c], b.cols[c]
		if cap(ca.f) != cap(cb.f) || cap(ca.i) != cap(cb.i) || cap(ca.s) != cap(cb.s) {
			return fmt.Sprintf("column %d capacity %d/%d/%d vs %d/%d/%d",
				c, cap(ca.f), cap(ca.i), cap(ca.s), cap(cb.f), cap(cb.i), cap(cb.s))
		}
		for row := 0; row < a.Len(); row++ {
			va, vb := ca.value(row), cb.value(row)
			if va.typ != vb.typ || math.Float64bits(va.f) != math.Float64bits(vb.f) || va.i != vb.i || va.s != vb.s {
				return fmt.Sprintf("cell (%d, %d): %v vs %v", row, c, va, vb)
			}
		}
	}
	return ""
}

// loadDiff loads data with LoadCSV cut into the given number of ranges
// and with ReadCSV, and returns "" when both fail with the same error
// text or both load the same relation.
func loadDiff(t testing.TB, data []byte, ranges int) string {
	t.Helper()
	got, gotErr := loadCSV(writeTemp(t, data), ranges, ranges)
	want, wantErr := ReadCSV("t", bytes.NewReader(data))
	switch {
	case gotErr != nil || wantErr != nil:
		if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
			return fmt.Sprintf("LoadCSV error %v, ReadCSV error %v", gotErr, wantErr)
		}
		return ""
	}
	return relationDiff(got, want)
}

// randomTable writes a table of n random rows over the given column
// types with WriteCSV; special mixes in the cells a loader may get
// wrong: NaN, ±Inf, −0, Int limits, and TEXT cells holding commas,
// quotes, newlines and leading spaces.
func randomTable(rng *rand.Rand, types []Type, n int, special bool) []byte {
	cols := make([]Column, len(types))
	for i, typ := range types {
		cols[i] = Column{Name: fmt.Sprintf("c%d", i), Type: typ}
	}
	r := New("t", mustSchema(cols...))
	floats := []float64{math.NaN(), math.Inf(1), math.Inf(-1), math.Copysign(0, -1), math.MaxFloat64, math.SmallestNonzeroFloat64}
	ints := []int64{math.MinInt64, math.MaxInt64, 0, -1}
	strs := []string{"a,b", `say "hi"`, "two\nlines", " lead", ""}
	vals := make([]Value, len(types))
	for row := 0; row < n; row++ {
		for i, typ := range types {
			pick := special && rng.Intn(4) == 0
			switch typ {
			case Float:
				vals[i] = F(rng.NormFloat64() * 1e3)
				if pick {
					vals[i] = F(floats[rng.Intn(len(floats))])
				}
			case Int:
				vals[i] = I(rng.Int63n(2e9) - 1e9)
				if pick {
					vals[i] = I(ints[rng.Intn(len(ints))])
				}
			default:
				vals[i] = S("s" + strconv.Itoa(rng.Intn(1e6)))
				if pick {
					vals[i] = S(strs[rng.Intn(len(strs))])
				}
			}
		}
		r.mustAppend(vals...)
	}
	var b bytes.Buffer
	if err := WriteCSV(r, &b); err != nil {
		panic(err)
	}
	return b.Bytes()
}

// csvSeeds are the inputs the fuzz target starts from: loaders disagree
// most easily on the grammar's edges.
func csvSeeds() [][]byte {
	rng := rand.New(rand.NewSource(1))
	seeds := [][]byte{
		randomTable(rng, []Type{Float, Float, Int}, 40, false),
		randomTable(rng, []Type{Float, Int, String}, 40, false),
		randomTable(rng, []Type{String}, 30, false),
		randomTable(rng, []Type{Float, Int}, 40, true),
		randomTable(rng, []Type{Int, String, Float}, 40, true),
		[]byte("a:f,b:i\n1,2\n\n3,4\n\n\n5,6\n"),   // empty lines
		[]byte("a:s\nx\n\ny\n\n\nz\n"),             // empty lines in one TEXT column
		[]byte("a:i\n12\n345\n6\n78\n9\n"),         // one short numeric column
		[]byte("\n\na:f,b:i\n1,2\n"),               // empty lines before the header
		[]byte("a:f,b:i\n1,2\n3,4"),                // no trailing newline
		[]byte("a:f,b:i\r\n1,2\r\n3,4\r\n"),        // CRLF
		[]byte("a:f,b:s\n1,\"x,y\"\n2,\"p\nq\"\n"), // quoted commas and newlines
		[]byte("a:f,b:s\n1,x\"y\n"),                // bare quote
		[]byte("a:f,b:i\n1,2\n3\n"),                // too few fields
		[]byte("a:f,b:i\n1,2\n3,4,5\n"),            // too many fields
		[]byte("a:f,b:s\n 1,x\n"),                  // leading space in a number
		[]byte("a:s,b:s\n x, y\n"),                 // leading spaces in text
		[]byte("a:f,b:f,c:f\nNaN,+Inf,-0\n-Inf,inf,0x1p-2\n"),
		[]byte("a:i,b:i\n-9223372036854775808,9223372036854775807\n"),
		[]byte("a:i\n9223372036854775808\n"), // Int overflow
		[]byte("a:i\n1.5\n"),                 // non-integral Int
		[]byte("\xef\xbb\xbfa:f,b:i\n1,2\n"), // BOM
		[]byte("a:f,b:i\n"),                  // header only
		[]byte("a:f,b:i"),                    // header only, no newline
		[]byte(""),                           // empty file
		[]byte("\n\n"),                       // only empty lines
		[]byte("a:f,a:i\n1,2\n"),             // duplicate column
		[]byte("a:f,,c\n1,x,y\n"),            // empty column name
		[]byte("a,b\nx,\n,y\n"),              // untyped, empty cells
	}
	return seeds
}

// TestLoadCSVMatchesReadCSV: a 20 000-row table with a TEXT column,
// many ranges' worth, loads alike through LoadCSV on 1, 2, 3 and 7
// ranges and through ReadCSV.
func TestLoadCSVMatchesReadCSV(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	big := randomTable(rng, []Type{String, Int, Float, Float, Float}, 20_000, false)
	for _, ranges := range []int{1, 2, 3, 7} {
		if d := loadDiff(t, big, ranges); d != "" {
			t.Errorf("%d ranges: %s", ranges, d)
		}
	}
}

// FuzzLoadCSV is the differential fuzz target: any input, cut into 1–4
// ranges (ranges of a few bytes on short inputs), loads through LoadCSV
// exactly as through ReadCSV, or fails with the same error text. Every
// seed is tried on every range count.
func FuzzLoadCSV(f *testing.F) {
	for _, data := range csvSeeds() {
		for ranges := uint8(0); ranges < 4; ranges++ {
			f.Add(data, ranges)
		}
	}
	f.Fuzz(func(t *testing.T, data []byte, ranges uint8) {
		if d := loadDiff(t, data, int(ranges%4)+1); d != "" {
			t.Fatalf("%d ranges: %s", ranges%4+1, d)
		}
	})
}

// TestAppendCapMatchesAppend: the capacity model LoadCSV sizes its
// columns with agrees with the runtime's own appends at every length up
// to 300 000, for every column element type.
func TestAppendCapMatchesAppend(t *testing.T) {
	const n = 300_000
	var fs []float64
	var is []int64
	var ss []string
	for i := 1; i <= n; i++ {
		fs, is, ss = append(fs, 0), append(is, 0), append(ss, "")
		if got := appendCap(i, 8, false); got != cap(fs) || got != cap(is) {
			t.Fatalf("8-byte elements at length %d: model %d, append %d/%d", i, got, cap(fs), cap(is))
		}
		if got := appendCap(i, 16, true); got != cap(ss) {
			t.Fatalf("string elements at length %d: model %d, append %d", i, got, cap(ss))
		}
	}
}

// numericFixture writes n rows of one Int and ten Float columns with
// three decimals, the shape of the benchmark's Galaxy file (about 75
// bytes a row).
func numericFixture(n int) []byte {
	var b bytes.Buffer
	b.WriteString("objid:i")
	for c := 0; c < 10; c++ {
		fmt.Fprintf(&b, ",f%d:f", c)
	}
	b.WriteByte('\n')
	for i := 0; i < n; i++ {
		b.WriteString(strconv.Itoa(1_000_000 + i))
		for c := 0; c < 10; c++ {
			b.WriteByte(',')
			b.WriteString(strconv.FormatFloat(math.Round(float64(i%99_991*(c+1))/7)/1000, 'g', -1, 64))
		}
		b.WriteByte('\n')
	}
	return b.Bytes()
}

// TestLoadCSVAllocationsIndependentOfRows: a numeric file loads with a
// fixed number of allocations — columns made once, buffers bounded, no
// per-cell or per-row object — so 200 000 rows allocate no more objects
// than 20 000.
func TestLoadCSVAllocationsIndependentOfRows(t *testing.T) {
	allocs := func(n int) float64 {
		path := writeTemp(t, numericFixture(n))
		return testing.AllocsPerRun(3, func() {
			if _, err := loadCSV(path, 2, 2); err != nil {
				t.Fatal(err)
			}
		})
	}
	small, large := allocs(20_000), allocs(200_000)
	if small != large {
		t.Fatalf("LoadCSV allocates %.0f objects at 20 000 rows and %.0f at 200 000", small, large)
	}
	t.Logf("%.0f allocations at either size", small)
}

// TestLoadCSVOneWorkerStartsNoGoroutine: one worker decodes on the
// calling goroutine however large the file; two workers fan out.
func TestLoadCSVOneWorkerStartsNoGoroutine(t *testing.T) {
	path := writeTemp(t, numericFixture(20_000)) // about 1.5 MB: many ranges' worth
	for _, tc := range []struct {
		workers int
		started bool
	}{{1, false}, {2, true}} {
		before := par.Started()
		if _, err := LoadCSVWorkers(path, tc.workers); err != nil {
			t.Fatal(err)
		}
		if started := par.Started() != before; started != tc.started {
			t.Errorf("workers=%d: goroutines started = %v, want %v", tc.workers, started, tc.started)
		}
	}
}

// BenchmarkLoadCSV loads the benchmark's file shape, 200 000 rows of
// one Int and ten Float columns, on one and two workers: the relation
// rung of the layer ladder.
func BenchmarkLoadCSV(b *testing.B) {
	path := writeTemp(b, numericFixture(200_000))
	for _, workers := range []int{1, 2} {
		b.Run("workers="+strconv.Itoa(workers), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := LoadCSVWorkers(path, workers); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
