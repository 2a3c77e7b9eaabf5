package relation

import (
	"bytes"
	"encoding/csv"
	"fmt"
	"io"
	"os"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"unsafe"

	"repro/internal/par"
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

// parseHeader builds the schema a CSV header names. A field ending in
// ":f", ":i" or ":s" is a DOUBLE, BIGINT or TEXT column named by what
// precedes the suffix; any other field, colons included, names a TEXT
// column whole.
func parseHeader(header []string) (Schema, error) {
	cols := make([]Column, len(header))
	seen := make(map[string]bool, len(header))
	for i, h := range header {
		cols[i] = Column{Name: h, Type: String}
		if j := len(h) - 2; j >= 0 && h[j] == ':' {
			switch h[j+1] {
			case 'f':
				cols[i] = Column{Name: h[:j], Type: Float}
			case 'i':
				cols[i] = Column{Name: h[:j], Type: Int}
			case 's':
				cols[i] = Column{Name: h[:j], Type: String}
			}
		}
		name := cols[i].Name
		if name == "" {
			return Schema{}, fmt.Errorf("relation: CSV header column %d has an empty name", i+1)
		}
		key := strings.ToLower(name)
		if seen[key] {
			return Schema{}, fmt.Errorf("relation: duplicate CSV header column %q", name)
		}
		seen[key] = true
	}
	schema, err := NewSchema(cols...)
	if err != nil {
		return Schema{}, fmt.Errorf("relation: CSV header: %w", err)
	}
	return schema, nil
}

// appendField decodes one CSV field as the column's type and appends it:
// ParseFloat for DOUBLE, base-10 ParseInt for BIGINT, the field itself
// for TEXT, each number behind its exact fast path (parseDecimal,
// parseDigits). ReadCSV decodes every cell here, and the range decode
// every cell appendLeading does not take.
func (c *column) appendField(field string) error {
	switch c.typ {
	case Float:
		f, n, ok := parseDecimal(field)
		if !ok || n < len(field) {
			var err error
			if f, err = strconv.ParseFloat(field, 64); err != nil {
				return err
			}
		}
		c.f = append(c.f, f)
	case Int:
		v, n, ok := parseDigits(field)
		if !ok || n < len(field) {
			var err error
			if v, err = strconv.ParseInt(field, 10, 64); err != nil {
				return err
			}
		}
		c.i = append(c.i, v)
	default:
		c.s = append(c.s, field)
	}
	return nil
}

// appendLeading decodes the number s starts with by the exact fast path
// of a numeric column — parseDecimal for DOUBLE, parseDigits for BIGINT —
// and appends it when it ends s or is followed by a ',', so that it is a
// whole field. It returns the field's length, or −1 when it appended
// nothing and the field is ParseFloat's or ParseInt's to decode.
func (c *column) appendLeading(s string) int {
	switch c.typ {
	case Float:
		if f, n, ok := parseDecimal(s); ok && (n == len(s) || s[n] == ',') {
			c.f = append(c.f, f)
			return n
		}
	case Int:
		if v, n, ok := parseDigits(s); ok && (n == len(s) || s[n] == ',') {
			c.i = append(c.i, v)
			return n
		}
	}
	return -1
}

// pow10 holds the powers of ten a float64 represents exactly.
var pow10 = [...]float64{1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10,
	1e11, 1e12, 1e13, 1e14, 1e15, 1e16, 1e17, 1e18, 1e19, 1e20, 1e21, 1e22}

// leadingDigits returns the value and the count of the decimal digits s
// starts with; the value wraps past 19 digits.
func leadingDigits(s string) (v uint64, n int) {
	for ; n < len(s); n++ {
		d := s[n] - '0'
		if d > 9 {
			break
		}
		v = v*10 + uint64(d)
	}
	return v, n
}

// parseDecimal reads the longest prefix of s made of an optional '-' and
// then digits with at most one '.', and reports its length. When it has
// a digit and at most 15 significant digits, ok is true and f is
// float64(mantissa) / 10^(digits after the point): both operands are
// exact, so the one IEEE division rounds the exact quotient correctly
// and f is strconv.ParseFloat's result for the prefix, bit for bit
// (Clinger 1990, the case ParseFloat's own atof64exact takes); "-0" stays
// −0. Anything else — a '+', an exponent, Inf or NaN, a space, more
// digits, no digit at all — is ParseFloat's to decide.
func parseDecimal(s string) (f float64, n int, ok bool) {
	neg := len(s) > 0 && s[0] == '-'
	if neg {
		n = 1
	}
	mant, whole := leadingDigits(s[n:])
	n += whole
	frac := 0
	if n < len(s) && s[n] == '.' {
		var tail uint64
		tail, frac = leadingDigits(s[n+1:])
		n += 1 + frac
		if frac < len(pow10) {
			mant = mant*uint64(pow10[frac]) + tail
		}
	}
	// 19 digits cannot wrap a uint64, and a mantissa below 10¹⁵ is one a
	// float64 holds exactly, as it does 10^frac for frac ≤ 19.
	if whole+frac == 0 || whole+frac > 19 || mant >= 1e15 {
		return 0, n, false
	}
	f = float64(mant) / pow10[frac]
	if neg {
		f = -f
	}
	return f, n, true
}

// parseDigits reads the longest prefix of s made of an optional '-' and
// then digits, and reports its length; ok is true, and v its value, when
// it has 1 to 18 digits, which an int64 holds whatever they are. Any
// other field is strconv.ParseInt's to decide.
func parseDigits(s string) (v int64, n int, ok bool) {
	neg := len(s) > 0 && s[0] == '-'
	if neg {
		n = 1
	}
	u, digits := leadingDigits(s[n:])
	n += digits
	if digits == 0 || digits > 18 {
		return 0, n, false
	}
	if v = int64(u); neg {
		v = -v
	}
	return v, n, true
}

// ReadCSV reads a relation written by WriteCSV, one record at a time
// through encoding/csv. Header fields without a ":f", ":i" or ":s"
// suffix name TEXT columns. It is the reference LoadCSV is measured
// against, and LoadCSV's path for every file its parallel decode does
// not take.
func ReadCSV(name string, rd io.Reader) (*Relation, error) {
	cr := csv.NewReader(rd)
	header, err := cr.Read()
	if err != nil {
		return nil, fmt.Errorf("relation: reading CSV header: %w", err)
	}
	schema, err := parseHeader(header)
	if err != nil {
		return nil, err
	}
	r := New(name, schema)
	// One record slice serves every line: each record's fields are cut
	// from a string of their own, so a TEXT cell stays valid after the
	// next Read. The reader holds every record to the header's field
	// count, so every column grows by one cell per record.
	cr.ReuseRecord = true
	for line := 2; ; line++ {
		rec, err := cr.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("relation: reading CSV line %d: %w", line, err)
		}
		for i, field := range rec {
			if err := r.cols[i].appendField(field); err != nil {
				return nil, fmt.Errorf("relation: line %d column %q: %w", line, schema.Col(i).Name, err)
			}
		}
		r.n++
		r.version++
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

// LoadCSV reads a relation from the named file, decoding it on up to
// GOMAXPROCS goroutines (see LoadCSVWorkers); the relation is named
// after the file path's base name minus extension.
func LoadCSV(path string) (*Relation, error) { return LoadCSVWorkers(path, 0) }

// LoadCSVWorkers is LoadCSV with the decode bounded to workers
// goroutines: 0 means GOMAXPROCS, and 1 decodes on the calling
// goroutine. The file body is cut into record-aligned byte ranges, at
// most one per worker, which are decoded concurrently straight into
// columns allocated once. A file holding a '"' or '\r' byte, or a
// record the ranges cannot decode the way encoding/csv would (a wrong
// field count, a cell that does not parse), is read again from the
// start by ReadCSV. Every file therefore loads to the relation ReadCSV
// reads — schema, cells, Version and column capacity — or fails with
// ReadCSV's error.
func LoadCSVWorkers(path string, workers int) (*Relation, error) {
	return loadCSV(path, workers, 0)
}

// loadCSV is LoadCSVWorkers with the number of ranges forced to ranges
// when it is positive (tests cut small files into many short ranges).
func loadCSV(path string, workers, ranges int) (*Relation, error) {
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
	if r := decodeCSV(f, base, workers, ranges); r != nil {
		return r, nil
	}
	if _, err := f.Seek(0, io.SeekStart); err != nil {
		return nil, err
	}
	return ReadCSV(base, f)
}

const (
	// loadBufSize bounds each range's read buffer; only a record longer
	// than it grows the buffer.
	loadBufSize = 1 << 20
	// minRangeBytes keeps a small file from being cut into ranges whose
	// goroutine and buffer cost more than their decode.
	minRangeBytes = 64 << 10
)

// csvRange is one record-aligned byte range [off, end) of the file
// body: it starts at a line start, and every range but the last ends
// just past a '\n'.
type csvRange struct {
	off, end int64
	buf      []byte // the range's read buffer, for both passes
	rows     int    // records in the range, counted by the pre-pass
	first    int    // row index of the range's first record
	ok       bool
}

// decodeCSV is the parallel decode behind LoadCSVWorkers. It returns nil
// when the file must go through ReadCSV: it cannot be read as a regular
// file, its header does not parse, it holds a '"' or '\r' byte, or a
// record does not decode.
func decodeCSV(f *os.File, name string, workers, nranges int) *Relation {
	st, err := f.Stat()
	if err != nil || !st.Mode().IsRegular() {
		return nil
	}
	size := st.Size()
	header, body, ok := readHeader(f, size)
	if !ok {
		return nil
	}
	schema, err := parseHeader(header)
	if err != nil {
		return nil
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if nranges <= 0 {
		nranges = int(max(1, min(int64(workers), (size-body)/minRangeBytes)))
	}
	ranges := make([]csvRange, nranges)
	prev := body
	for k := range ranges {
		end := size
		if k < nranges-1 {
			if end, ok = recordStart(f, body+int64(k+1)*(size-body)/int64(nranges), size); !ok {
				return nil
			}
		}
		ranges[k].off, ranges[k].end = prev, max(prev, end)
		prev = ranges[k].end
	}

	// Pre-pass: count each range's records (encoding/csv skips empty
	// lines) and look for the bytes that route the file to ReadCSV.
	par.For(nranges, workers, func(k int) {
		rg := &ranges[k]
		rg.buf = make([]byte, min(loadBufSize, rg.end-rg.off))
		rg.ok = eachLine(f, rg.off, rg.end, rg.buf, func(line []byte) bool {
			if len(line) > 0 {
				rg.rows++
			}
			return unquoted(line)
		})
	})
	n := 0
	for k := range ranges {
		if !ranges[k].ok {
			return nil
		}
		ranges[k].first = n
		n += ranges[k].rows
	}

	// Columns are made once, at the capacity row-at-a-time appends
	// reach, and each range appends into its own window of them.
	cols := make([]Cells, schema.Len())
	for i := range cols {
		cols[i] = MakeCells(schema.Col(i).Type, n)
	}
	r, err := FromColumns(name, schema, cols, n, uint64(n))
	if err != nil {
		return nil // not reached: cols were made from schema
	}
	par.For(nranges, workers, func(k int) {
		rg := &ranges[k]
		rg.ok = decodeRange(f, rg, r.cols)
	})
	for k := range ranges {
		if !ranges[k].ok {
			return nil
		}
	}
	return r
}

// readHeader returns the fields of the file's header — its first
// non-empty line, as encoding/csv skips empty lines — and the offset of
// the body after it. It reports false for a file with no header or
// with a '"' or '\r' byte in the header.
func readHeader(f io.ReaderAt, size int64) (header []string, body int64, ok bool) {
	eachLine(f, 0, size, make([]byte, min(4<<10, size)), func(line []byte) bool {
		body += int64(len(line)) + 1
		if len(line) == 0 {
			return true
		}
		header, ok = strings.Split(string(line), ","), unquoted(line)
		return false
	})
	return header, min(body, size), ok
}

// recordStart returns the offset of the first line start at or after
// off: just past the first '\n' at or after off−1, or size if none.
func recordStart(f io.ReaderAt, off, size int64) (int64, bool) {
	start, found := off-1, false
	eachLine(f, off-1, size, make([]byte, 4<<10), func(line []byte) bool {
		start, found = start+int64(len(line))+1, true
		return false
	})
	return min(start, size), found
}

// unquoted reports whether line holds neither '"' nor '\r', the bytes
// whose grammar only encoding/csv implements.
func unquoted(line []byte) bool {
	return bytes.IndexByte(line, '"') < 0 && bytes.IndexByte(line, '\r') < 0
}

// decodeRange decodes the range's records into rows [first, first+rows)
// of cols. It reports false for a record with the wrong field count or
// a cell that does not parse, and for a range that no longer holds the
// records the pre-pass counted.
func decodeRange(f io.ReaderAt, rg *csvRange, cols []*column) bool {
	win := make([]column, len(cols))
	lo, hi := rg.first, rg.first+rg.rows
	for i, c := range cols {
		win[i] = column{typ: c.typ}
		switch c.typ {
		case Float:
			win[i].f = c.f[lo:lo:hi]
		case Int:
			win[i].i = c.i[lo:lo:hi]
		default:
			win[i].s = c.s[lo:lo:hi]
		}
	}
	rows := 0
	ok := eachLine(f, rg.off, rg.end, rg.buf, func(line []byte) bool {
		if len(line) == 0 {
			return true // encoding/csv skips empty lines
		}
		if rows == rg.rows {
			return false
		}
		for i := range win {
			c := &win[i]
			// A numeric cell is parsed in place, by the fast path up to the
			// ',' that ends it when it can; a TEXT cell gets a string of its
			// own, since the buffer is read over.
			j := c.appendLeading(unsafe.String(unsafe.SliceData(line), len(line)))
			if j < 0 {
				if j = bytes.IndexByte(line, ','); j < 0 {
					j = len(line)
				}
				s := unsafe.String(unsafe.SliceData(line), j)
				if c.typ == String {
					s = string(line[:j])
				}
				if c.appendField(s) != nil {
					return false
				}
			}
			switch {
			case i < len(win)-1 && j == len(line):
				return false // too few fields
			case i < len(win)-1:
				line = line[j+1:]
			case j < len(line):
				return false // too many fields
			}
		}
		rows++
		return true
	})
	return ok && rows == rg.rows
}

// eachLine calls fn on each line of the range [off, end), without its
// '\n', until fn returns false. It reads through buf and grows it only
// for a line longer than buf. It reports false when fn does or when the
// range cannot be read.
func eachLine(f io.ReaderAt, off, end int64, buf []byte, fn func(line []byte) bool) bool {
	have := 0 // bytes of an unfinished line carried at the front of buf
	for off < end {
		if have == len(buf) {
			buf = append(buf, make([]byte, len(buf))...)
		}
		chunk := buf[have:min(int64(len(buf)), int64(have)+end-off)]
		if m, _ := f.ReadAt(chunk, off); m < len(chunk) {
			return false
		}
		off += int64(len(chunk))
		data := buf[:have+len(chunk)]
		for {
			i := bytes.IndexByte(data, '\n')
			if i < 0 {
				break
			}
			if !fn(data[:i]) {
				return false
			}
			data = data[i+1:]
		}
		have = copy(buf, data)
	}
	return have == 0 || fn(buf[:have])
}

// sizeClasses are the Go runtime's small-object allocation sizes
// (runtime/sizeclasses.go).
var sizeClasses = []int{0, 8, 16, 24, 32, 48, 64, 80, 96, 112, 128, 144, 160, 176, 192, 208, 224, 240, 256, 288, 320, 352, 384, 416, 448, 480, 512, 576, 640, 704, 768, 896, 1024, 1152, 1280, 1408, 1536, 1792, 2048, 2304, 2688, 3072, 3200, 3456, 4096, 4864, 5376, 6144, 6528, 6784, 6912, 8192, 9472, 9728, 10240, 10880, 12288, 13568, 14336, 16384, 18432, 19072, 20480, 21760, 24576, 27264, 28672, 32768}

// MakeCells makes a column of n zero cells of typ, for a decoder that
// fills typed columns itself (the CSV range decode, a store snapshot) to
// fill and hand to FromColumns, at the capacity n row-at-a-time appends
// reach (appendCap): the first Append after the load then copies no
// column. At n = 0 it makes none, as no appends would.
func MakeCells(typ Type, n int) Cells {
	var c Cells
	switch {
	case n == 0:
	case typ == Float:
		c.F = make([]float64, n, appendCap(n, 8, false))
	case typ == Int:
		c.I = make([]int64, n, appendCap(n, 8, false))
	default:
		c.S = make([]string, n, appendCap(n, 16, true))
	}
	return c
}

// appendCap returns the capacity a slice of elemSize-byte elements
// reaches when n elements are appended to it one at a time from nil:
// the runtime's growth rule (double below 256 elements, then about
// 1.25×) with each new array rounded up to what the allocator hands
// out — a size class up to 32 KiB, whole 8 KiB pages above. pointers
// marks an element type the collector scans, whose arrays above 512
// bytes carry an 8-byte header inside the size class.
// TestAppendCapMatchesAppend compares it with real appends, so a
// toolchain that grows slices differently fails there instead of
// changing loaded columns' capacity.
func appendCap(n, elemSize int, pointers bool) int {
	c := 0
	for c < n {
		next := 2 * c
		switch {
		case c == 0:
			next = 1
		case c >= 256:
			next = c + (c+3*256)>>2
		}
		c = allocSize(next*elemSize, pointers) / elemSize
	}
	return c
}

// allocSize is the usable size of the block the runtime allocates for
// a size-byte array.
func allocSize(size int, pointers bool) int {
	const maxSmall, header, page = 32 << 10, 8, 8 << 10
	if size > maxSmall-header {
		return (size + page - 1) &^ (page - 1)
	}
	req := size
	if pointers && size > 512 {
		req += header
	}
	i, _ := slices.BinarySearch(sizeClasses, req)
	return sizeClasses[i] - (req - size)
}
