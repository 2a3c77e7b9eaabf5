package store

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
)

// This file is the store's replication surface: file-level read access
// to the WAL and snapshot that lets a leader ship its log to followers
// without holding the owning session's locks. The WAL is append-only
// between resets, so reading the file concurrently with appends is
// safe: a reader sees a prefix of the record stream plus at most one
// torn tail, which the framing walk stops cleanly before. Truncations
// (snapshot resets) are detected by the caller via the snapshot
// version, which changes on every reset.

// ErrNotBoundary reports a replication read that does not land on a
// record boundary — a stale offset after a WAL truncation, or a
// version the log no longer covers. The follower's recovery is a full
// resync from the current snapshot.
var ErrNotBoundary = errors.New("store: offset is not a WAL record boundary")

// WALStart is the offset of the first record in a WAL file (just past
// the magic header) — the lowest valid replication offset.
const WALStart = int64(len(walMagic))

// ReadWALSegment reads complete, checksum-verified record frames from
// the WAL at path, starting at byte offset from (which must be a
// record boundary; WALStart for the beginning). maxEnd, when positive,
// caps the absolute end offset — the leader passes its durable sync
// watermark so a follower never receives bytes a leader crash could
// take back. maxBytes, when positive, bounds the segment size (always
// rounded down to whole records, but never below one: the record that
// exceeds the cap on its own still ships whole).
//
// It returns the framed bytes [from, end) and the end offset; an empty
// segment with end == from means the follower is caught up. A from
// that is not a boundary of the current file returns ErrNotBoundary.
//
// Only the requested range is read and verified — a poll near the tail
// of a large WAL costs the segment, not the whole file. Boundary
// validity of from is checked locally: within the durable watermark
// frames tile exactly, so an offset whose frame fails to parse, fails
// its checksum, or overruns the watermark was not a boundary (the
// leader pairs this with the base_version check, which catches offsets
// into a truncated WAL incarnation).
func ReadWALSegment(path string, from, maxEnd, maxBytes int64) ([]byte, int64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, 0, err
	}
	defer f.Close()
	var magic [WALStart]byte
	n, err := io.ReadFull(f, magic[:])
	if err != nil && err != io.EOF && err != io.ErrUnexpectedEOF {
		return nil, 0, err
	}
	if torn, err := checkWALHeader(path, magic[:n]); err != nil {
		return nil, 0, err
	} else if torn {
		return nil, WALStart, nil // an empty log: caught up
	}
	fi, err := f.Stat()
	if err != nil {
		return nil, 0, err
	}
	// effEnd is the last byte this read may ship: the durable watermark
	// when the caller supplies one, the current file size otherwise.
	// With a watermark, frames tile [WALStart, effEnd) exactly — the
	// writer only advances it past complete records — which is what
	// makes torn-looking frames below it a boundary violation rather
	// than a tail still being written.
	effEnd := fi.Size()
	durable := maxEnd > 0
	if durable && maxEnd < effEnd {
		effEnd = maxEnd
	}
	if from < WALStart {
		from = WALStart
	}
	if from > effEnd {
		return nil, 0, fmt.Errorf("%w: %s: offset %d is past the durable end %d", ErrNotBoundary, path, from, effEnd)
	}
	if from == effEnd {
		return nil, from, nil // caught up
	}
	notBoundary := func(why string) error {
		return fmt.Errorf("%w: %s: offset %d (%s)", ErrNotBoundary, path, from, why)
	}

	want := effEnd - from
	if maxBytes > 0 && maxBytes < want {
		want = maxBytes
	}
	if want < walFrameHeader && effEnd-from >= walFrameHeader {
		want = walFrameHeader // always enough to parse the first header
	}
	buf := make([]byte, want)
	if _, err := f.ReadAt(buf, from); err != nil {
		return nil, 0, fmt.Errorf("store: reading WAL segment %s@%d: %w", path, from, err)
	}

	// Walk whole frames; end counts their bytes, relative to from. The
	// policy for what parseFrame reports: a bad first frame means from was
	// not a boundary, a bad later one is corruption; a short frame ends
	// the segment — unless it is the first, fits below effEnd and merely
	// exceeds maxBytes, in which case it ships whole anyway.
	var end int64
walk:
	for end < int64(len(buf)) {
		_, size, err := parseFrame(buf[end:])
		switch {
		case err == nil:
			end += size
		case !errors.Is(err, errShortFrame):
			if end == 0 {
				return nil, 0, notBoundary(err.Error())
			}
			return nil, 0, fmt.Errorf("%s: record at offset %d: %w", path, from+end, err)
		case end > 0 || size == 0 || from+size > effEnd:
			break walk
		default:
			grown := make([]byte, size)
			copy(grown, buf)
			if _, err := f.ReadAt(grown[len(buf):], from+int64(len(buf))); err != nil {
				return nil, 0, fmt.Errorf("store: reading WAL segment %s@%d: %w", path, from, err)
			}
			buf = grown
		}
	}
	if end == 0 {
		if durable {
			// from < effEnd yet no whole frame fits before the durable end:
			// a real boundary below the watermark always starts a complete
			// frame, so the cursor is mid-record.
			return nil, 0, notBoundary(fmt.Sprintf("no complete record before durable end %d", effEnd))
		}
		return nil, from, nil // only a torn tail ahead; caught up
	}
	return buf[:end], from + end, nil
}

// OffsetOfVersion maps a dataset version to the WAL byte offset of the
// first record a dataset at that version still needs — the follower's
// crash-safe resume cursor (its own dataset version) translated into
// the leader's log. A version the log has already folded away (it
// predates every record and the records are not contiguous with it)
// returns ErrNotBoundary: the follower must resync from the snapshot.
// A version at or past the log's end returns the end offset (caught
// up).
func OffsetOfVersion(path string, version uint64) (int64, error) {
	next := uint64(0) // version reached after the records walked so far
	matched := false
	end, err := scanWAL(path, func(_ int64, payload []byte) (bool, error) {
		_, pre, ops, _, err := recordHeader(payload)
		if err != nil {
			return false, err
		}
		if version < pre {
			// Records are version-contiguous, so a version below this
			// record's base either predates the whole log or falls inside
			// the previous record's batch — neither is resumable.
			return false, fmt.Errorf("%w: version %d not on a record boundary (record base %d)", ErrNotBoundary, version, pre)
		}
		matched = version == pre // resume here
		next = pre + ops
		return matched, nil
	})
	if err != nil {
		return 0, err
	}
	if !matched && version < next {
		// version falls inside the log's final record.
		return 0, fmt.Errorf("%w: version %d is mid-record", ErrNotBoundary, version)
	}
	// A torn header is an empty log (see checkWALHeader): its first record
	// will land at WALStart.
	return max(end, WALStart), nil
}

// ReadFrame reads one length-prefixed, checksummed record frame from a
// replication stream — the same framing ReadWALSegment ships. A clean
// end of stream is io.EOF; a stream cut mid-frame is
// io.ErrUnexpectedEOF (the caller resumes from its last applied
// record); a checksum mismatch is ErrCorrupt. It returns the payload
// and the total frame length consumed.
func ReadFrame(r io.Reader) ([]byte, int64, error) {
	var hdr [walFrameHeader]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		if err == io.EOF {
			return nil, 0, io.EOF
		}
		return nil, 0, io.ErrUnexpectedEOF
	}
	// A bare header is never a whole frame: parseFrame either sizes the
	// frame or rejects its length.
	_, size, err := parseFrame(hdr[:])
	if !errors.Is(err, errShortFrame) {
		return nil, 0, fmt.Errorf("streamed record: %w", err)
	}
	frame := make([]byte, size)
	copy(frame, hdr[:])
	if _, err := io.ReadFull(r, frame[walFrameHeader:]); err != nil {
		return nil, 0, io.ErrUnexpectedEOF
	}
	payload, _, err := parseFrame(frame)
	if err != nil {
		return nil, 0, fmt.Errorf("streamed record: %w", err)
	}
	return payload, size, nil
}

// ReadSnapshotBytes returns the raw, verified bytes of a store
// directory's snapshot file and the dataset version it holds — what a
// leader serves to bootstrap a follower. The header and checksum are
// verified (so a torn or corrupt file is never shipped) but the
// payload is not fully decoded.
func ReadSnapshotBytes(dir string) ([]byte, uint64, error) {
	path := filepath.Join(dir, snapFile)
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, 0, err
	}
	payload, err := verifyFramed(path, data)
	if err != nil {
		return nil, 0, err
	}
	version, n := binary.Uvarint(payload)
	if n <= 0 {
		return nil, 0, fmt.Errorf("%w: %s: truncated snapshot version", ErrCorrupt, path)
	}
	return data, version, nil
}

// InstallSnapshot bootstraps (or resyncs) a follower's store directory
// from snapshot bytes shipped by a leader: the frame is fully verified
// — header, checksum, and a complete decode — written atomically, and
// the WAL is created fresh (a shipped snapshot re-roots the store, so
// any previous log contents are invalid). The directory must not be in
// use by an open Store.
func InstallSnapshot(dir string, data []byte) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(dir, snapFile)
	payload, err := verifyFramed(path, data)
	if err != nil {
		return err
	}
	if _, err := decodeSnapshot(payload); err != nil {
		return fmt.Errorf("install snapshot: %w", err)
	}
	if err := WriteFileAtomic(path, data); err != nil {
		return err
	}
	w, err := CreateWAL(filepath.Join(dir, walFile))
	if err != nil {
		return err
	}
	return w.Close()
}
