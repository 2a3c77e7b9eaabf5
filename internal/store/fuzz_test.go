package store

import (
	"bytes"
	"errors"
	"io"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/relation"
	"repro/internal/reltest"
)

// countFrames reads frames off b with ReadFrame until it stops, handing
// each payload to visit, and returns how many it read and why it stopped.
func countFrames(b []byte, visit func([]byte)) (int, error) {
	r := bytes.NewReader(b)
	for n := 0; ; n++ {
		payload, _, err := ReadFrame(r)
		if err != nil {
			return n, err
		}
		if visit != nil {
			visit(payload)
		}
	}
}

// FuzzWALReaders holds every reader of the WAL's framing to one story
// about arbitrary bytes: the whole-file scan, ReadWALSegment from each
// boundary the scan reports, and ReadFrame over the same bytes agree on
// how many whole records precede the first bad byte; every payload they
// deliver decodes or is ErrCorrupt; and nothing but ErrCorrupt,
// ErrNotBoundary, io.EOF and io.ErrUnexpectedEOF ever comes back — no
// panic, no untyped error.
func FuzzWALReaders(f *testing.F) {
	golden := unhex(f, goldenWAL)
	f.Add(golden)
	for cut := 0; cut < len(golden); cut += 5 {
		f.Add(golden[:cut]) // torn header, torn frame header, torn payload
	}
	for pos := 0; pos < len(golden); pos += 7 {
		flipped := append([]byte(nil), golden...)
		flipped[pos] ^= 0x10
		f.Add(flipped)
	}
	f.Add([]byte(walMagic + "\x00\x00\x00\x00\x00\x00\x00\x00"))     // zero length
	f.Add([]byte(walMagic + "\xff\xff\xff\xff\x00\x00\x00\x00rest")) // oversized length
	f.Add([]byte("NOTAWAL0"))
	schema := reltest.Schema(
		relation.Column{Name: "id", Type: relation.Int},
		relation.Column{Name: "mag", Type: relation.Float},
		relation.Column{Name: "name", Type: relation.String},
	)

	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), walFile)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		decodes := func(p []byte) {
			if _, err := DecodeRecord(schema, p); err != nil && !errors.Is(err, ErrCorrupt) {
				t.Fatalf("DecodeRecord: untyped error %v", err)
			}
		}

		var bounds []int64
		end, scanErr := scanWAL(path, func(off int64, p []byte) (bool, error) {
			bounds = append(bounds, off)
			decodes(p)
			return false, nil
		})
		if scanErr != nil && !errors.Is(scanErr, ErrCorrupt) {
			t.Fatalf("scan: untyped error %v", scanErr)
		}
		n := len(bounds)
		if end < WALStart {
			// A bad or torn header: no reader may find a record. The torn
			// one is an empty log to ReadWALSegment too.
			if n != 0 {
				t.Fatalf("scan delivered %d records from a headerless file", n)
			}
			seg, _, err := ReadWALSegment(path, WALStart, 0, 0)
			if len(seg) != 0 || (err == nil) != (scanErr == nil) || (err != nil && !errors.Is(err, ErrCorrupt)) {
				t.Fatalf("headerless file: scan err %v, ReadWALSegment = (%d bytes, %v)", scanErr, len(seg), err)
			}
			return
		}
		bounds = append(bounds, end)

		// The stream reader over the same bytes.
		streamed, err := countFrames(data[WALStart:], decodes)
		switch {
		case streamed != n:
			t.Fatalf("ReadFrame read %d records, scan %d", streamed, n)
		case scanErr != nil && !errors.Is(err, ErrCorrupt):
			t.Fatalf("scan says %v, ReadFrame stopped with %v", scanErr, err)
		case scanErr == nil && err != io.EOF && err != io.ErrUnexpectedEOF:
			t.Fatalf("scan ended cleanly, ReadFrame stopped with %v", err)
		}

		for i, from := range bounds[:n] {
			// Below a watermark at the first bad byte, every boundary ships
			// exactly the records after it.
			seg, segEnd, err := ReadWALSegment(path, from, end, 0)
			if err != nil || segEnd != end || !bytes.Equal(seg, data[from:end]) {
				t.Fatalf("boundary %d: watermarked segment = (%d bytes, end %d, %v), want [%d, %d)", i, len(seg), segEnd, err, from, end)
			}
			if got, _ := countFrames(seg, nil); got != n-i {
				t.Fatalf("boundary %d: segment holds %d records, want %d", i, got, n-i)
			}
			// A size cap rounds down to whole records but never below one.
			seg, segEnd, err = ReadWALSegment(path, from, end, 16)
			got, _ := countFrames(seg, nil)
			if err != nil || got < 1 || segEnd != bounds[i+got] {
				t.Fatalf("boundary %d: capped segment = (%d records, end %d, %v)", i, got, segEnd, err)
			}
			// Without a watermark the read runs into whatever ended the scan.
			seg, segEnd, err = ReadWALSegment(path, from, 0, 0)
			if scanErr == nil && (err != nil || segEnd != end || len(seg) != int(end-from)) {
				t.Fatalf("boundary %d: open segment = (%d bytes, end %d, %v)", i, len(seg), segEnd, err)
			}
			if scanErr != nil && !errors.Is(err, ErrCorrupt) {
				t.Fatalf("boundary %d: open segment over a corrupt log: %v", i, err)
			}
		}
		// The scan's end is the caught-up position of a clean log and, of a
		// corrupt one, an offset no frame starts at.
		seg, _, err := ReadWALSegment(path, end, 0, 0)
		if scanErr == nil && (err != nil || len(seg) != 0) {
			t.Fatalf("read at the end of a clean log = (%d bytes, %v)", len(seg), err)
		}
		if scanErr != nil && !errors.Is(err, ErrNotBoundary) {
			t.Fatalf("read at the corrupt frame: %v, want ErrNotBoundary", err)
		}
	})
}
