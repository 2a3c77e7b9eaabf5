package relation

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
)

// csvFixture writes n rows of a string, an int and nine float columns —
// the shape of a Galaxy table with a name column — as CSV.
func csvFixture(n int) []byte {
	var b bytes.Buffer
	b.WriteString("name:s,objid:i")
	for c := 0; c < 9; c++ {
		fmt.Fprintf(&b, ",f%d:f", c)
	}
	b.WriteByte('\n')
	for i := 0; i < n; i++ {
		fmt.Fprintf(&b, "row-%d-%s,%d", i, strings.Repeat("x", i%7), 1_000_000+i)
		for c := 0; c < 9; c++ {
			fmt.Fprintf(&b, ",%g", float64(i*(c+1))/7)
		}
		b.WriteByte('\n')
	}
	return b.Bytes()
}

// TestReadCSVStringsSurviveReusedRecords: ReadCSV reuses one record and
// one row of values for every line, so a string cell must not alias
// anything a later line overwrites. Every cell reads back as written.
func TestReadCSVStringsSurviveReusedRecords(t *testing.T) {
	const n = 3000
	r, err := ReadCSV("t", bytes.NewReader(csvFixture(n)))
	if err != nil {
		t.Fatal(err)
	}
	if r.Len() != n {
		t.Fatalf("read %d rows, want %d", r.Len(), n)
	}
	for i := 0; i < n; i++ {
		if got, want := r.Str(i, 0), fmt.Sprintf("row-%d-%s", i, strings.Repeat("x", i%7)); got != want {
			t.Fatalf("row %d name %q, want %q", i, got, want)
		}
		if got := r.IntColumn(1)[i]; got != int64(1_000_000+i) {
			t.Fatalf("row %d objid %d", i, got)
		}
		for c := 0; c < 9; c++ {
			var want float64
			fmt.Sscan(fmt.Sprintf("%g", float64(i*(c+1))/7), &want)
			if got := r.FloatColumn(2 + c)[i]; got != want {
				t.Fatalf("row %d f%d = %v, want %v", i, c, got, want)
			}
		}
	}
}

// TestReadCSVAllocationsPerRow gates the CSV load at one allocation per
// row — the record's own string — plus the amortized column growth: the
// record slice and the row of values are reused, not boxed anew per line
// (the boxing load made three per row).
func TestReadCSVAllocationsPerRow(t *testing.T) {
	const n = 20_000
	data := csvFixture(n)
	allocs := testing.AllocsPerRun(3, func() {
		if _, err := ReadCSV("t", bytes.NewReader(data)); err != nil {
			t.Fatal(err)
		}
	})
	if perRow := allocs / n; perRow > 1.05 {
		t.Fatalf("ReadCSV allocates %.3f per row, want ≤ 1.05", perRow)
	}
}

// TestCSVHeaderSuffixes: only ":f", ":i" and ":s" type a header field;
// any other colon belongs to the column's name. Both loaders share the
// header code.
func TestCSVHeaderSuffixes(t *testing.T) {
	data := []byte("time:zone,a:b:f,x:s,n:i\nutc+1,1.5,y,7\n")
	want := mustSchema(
		Column{Name: "time:zone", Type: String},
		Column{Name: "a:b", Type: Float},
		Column{Name: "x", Type: String},
		Column{Name: "n", Type: Int},
	)
	read, err := ReadCSV("t", bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	loaded, err := loadCSV(writeTemp(t, data), 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	for name, r := range map[string]*Relation{"ReadCSV": read, "LoadCSV": loaded} {
		if !r.Schema().Equal(want) {
			t.Errorf("%s: schema %s, want %s", name, r.Schema(), want)
		}
		if got := r.Str(0, 0); got != "utc+1" {
			t.Errorf("%s: time:zone cell %q", name, got)
		}
	}
}
