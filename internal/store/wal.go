package store

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"sync"
)

// ErrCorrupt is the typed error for on-disk state that fails
// verification: a checksum mismatch, an impossible length, a record out
// of version order, or a snapshot that does not decode. Recovery either
// replays cleanly or fails with an error satisfying
// errors.Is(err, ErrCorrupt) — never a panic, never silently applied
// garbage.
var ErrCorrupt = errors.New("store: corrupt durable state")

// walMagic begins every WAL file; the trailing digit versions the
// format.
const walMagic = "PAQWAL01"

// walFrameHeader is the per-record frame: a little-endian uint32 payload
// length followed by a CRC-32C checksum of the payload.
const walFrameHeader = 8

// maxWALRecord bounds a single record's payload. A length field above
// it cannot come from a writer in this process (mutation batches are
// size-capped far below), so it is corruption, not a large record.
const maxWALRecord = 1 << 28 // 256 MiB

// castagnoli is the CRC-32C table (the checksum polynomial used by
// iSCSI, ext4, and most modern WALs; hardware-accelerated on amd64).
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// WAL is an append-only, checksummed, length-prefixed log with
// group-commit fsync batching: concurrent Append calls staged while an
// fsync is in flight are made durable by the next one, so a burst of
// commits pays one disk flush instead of one each. Append returns only
// after the record is durable (fsync covering its bytes completed).
//
// A WAL is safe for concurrent use.
type WAL struct {
	path string

	// mu serializes file writes and guards size.
	mu   sync.Mutex
	f    *os.File
	size int64 // bytes written (not necessarily synced)

	// syncMu guards the group-commit state below; syncCond wakes waiters
	// when a sync round completes.
	syncMu   sync.Mutex
	syncCond *sync.Cond
	syncing  bool
	synced   int64 // bytes durably synced
	failed   error // a failed write/fsync poisons the WAL until a Reset succeeds
	// epoch counts Resets. A commit staged in an earlier epoch needs no
	// fsync: the Reset that advanced the epoch was part of writing a
	// snapshot that already contains the staged record's effect (the
	// snapshot serialized memory after the record was applied).
	epoch uint64

	// appends and syncs instrument group commit: syncs < appends under
	// concurrent load is the batching at work.
	appends uint64
	syncs   uint64
}

// CreateWAL creates (or truncates) a WAL file and writes its header.
func CreateWAL(path string) (*WAL, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return nil, err
	}
	if _, err := f.Write([]byte(walMagic)); err != nil {
		f.Close()
		return nil, err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return nil, err
	}
	w := &WAL{path: path, f: f, size: int64(len(walMagic)), synced: int64(len(walMagic))}
	w.syncCond = sync.NewCond(&w.syncMu)
	return w, nil
}

// OpenWAL opens an existing WAL for appending. The file's record stream
// is not verified here — recovery does that via ReplayWAL — but the
// append offset is positioned after the last complete record, so a torn
// tail from a crash is overwritten by the next append.
func OpenWAL(path string) (*WAL, error) {
	end, err := scanWAL(path, nil)
	if err != nil {
		return nil, err
	}
	if end < int64(len(walMagic)) {
		// The header itself was torn (crash during creation, before any
		// record could exist): recreate it, or appends would land behind
		// a garbage header and the NEXT boot would read the whole log as
		// corrupt — losing acknowledged records to a pre-existing tear.
		return CreateWAL(path)
	}
	f, err := os.OpenFile(path, os.O_RDWR, 0o644)
	if err != nil {
		return nil, err
	}
	if err := f.Truncate(end); err != nil {
		f.Close()
		return nil, err
	}
	if _, err := f.Seek(end, io.SeekStart); err != nil {
		f.Close()
		return nil, err
	}
	w := &WAL{path: path, f: f, size: end, synced: end}
	w.syncCond = sync.NewCond(&w.syncMu)
	return w, nil
}

// CommitToken identifies a staged record for Commit.
type CommitToken struct {
	epoch  uint64
	target int64
}

// Stage frames the payload (length prefix + CRC-32C) and writes it to
// the file WITHOUT making it durable; the returned token is passed to
// Commit for the fsync. Staging is cheap (one buffered kernel write),
// so callers can stage under a data lock and commit after releasing it
// — which is what lets concurrent committers share one fsync.
func (w *WAL) Stage(payload []byte) (CommitToken, error) {
	if len(payload) == 0 {
		return CommitToken{}, fmt.Errorf("store: empty WAL record")
	}
	if len(payload) > maxWALRecord {
		return CommitToken{}, fmt.Errorf("store: WAL record of %d bytes exceeds the %d-byte limit", len(payload), maxWALRecord)
	}
	frame := make([]byte, walFrameHeader+len(payload))
	binary.LittleEndian.PutUint32(frame[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(frame[4:8], crc32.Checksum(payload, castagnoli))
	copy(frame[walFrameHeader:], payload)

	w.mu.Lock()
	if w.f == nil {
		w.mu.Unlock()
		return CommitToken{}, fmt.Errorf("store: append to closed WAL")
	}
	// A poisoned WAL must refuse to WRITE, not merely refuse to
	// acknowledge: a frame written after a failed write/fsync has a
	// valid CRC and could survive on disk as a phantom record that
	// replay would apply even though the caller was told the commit
	// failed. The check happens under mu because every poisoning site
	// holds mu too (mu→syncMu, the order Reset established) — so no
	// fsync failure can slip between this check and the write below.
	w.syncMu.Lock()
	failed := w.failed
	w.syncMu.Unlock()
	if failed != nil {
		w.mu.Unlock()
		return CommitToken{}, failed
	}
	if _, err := w.f.Write(frame); err != nil {
		// The write may have landed partially: the file offset is past
		// garbage that a later successful append would bury mid-log,
		// turning a refused mutation into unrecoverable corruption at
		// the next boot. Poison, like a failed fsync.
		w.syncMu.Lock()
		w.failed = fmt.Errorf("store: wal write: %w", err)
		w.syncMu.Unlock()
		w.mu.Unlock()
		return CommitToken{}, err
	}
	w.size += int64(len(frame))
	target := w.size
	// Build the token before releasing mu: Reset holds mu for its whole
	// body, so the epoch read here cannot interleave with a truncation —
	// which would pair a post-Reset epoch with a pre-truncation target,
	// a token Commit could never correctly satisfy.
	w.syncMu.Lock()
	w.appends++
	tok := CommitToken{epoch: w.epoch, target: target}
	w.syncMu.Unlock()
	w.mu.Unlock()
	return tok, nil
}

// Commit blocks until the staged record is durable: fsynced, or
// superseded by a Reset (the snapshot that truncated the log already
// holds the record's effect). Concurrent commits share fsync rounds.
func (w *WAL) Commit(tok CommitToken) error { return w.syncTo(tok) }

// Append is Stage + Commit: the record is durable when it returns.
func (w *WAL) Append(payload []byte) error {
	tok, err := w.Stage(payload)
	if err != nil {
		return err
	}
	return w.Commit(tok)
}

// syncTo blocks until the token's bytes are durably synced (or its
// epoch superseded). The first waiter of a round becomes the leader
// and runs the fsync; the rest wait and share its result — group
// commit.
func (w *WAL) syncTo(tok CommitToken) error {
	w.syncMu.Lock()
	defer w.syncMu.Unlock()
	for {
		if w.epoch > tok.epoch {
			return nil // a snapshot superseded this record
		}
		if w.failed != nil {
			return w.failed
		}
		if w.synced >= tok.target {
			return nil
		}
		if w.syncing {
			w.syncCond.Wait()
			continue
		}
		w.syncing = true
		// A Reset during the fsync invalidates covered: it refers to
		// pre-truncation bytes, and blindly storing it into synced after
		// Reset rewound synced to the header would let later commits see
		// synced >= target and skip their fsync — acknowledging
		// non-durable mutations.
		epochAtStart := w.epoch
		w.syncMu.Unlock()

		w.mu.Lock()
		covered := w.size // everything written so far rides this fsync
		f := w.f
		w.mu.Unlock()
		var err error
		if f == nil {
			err = fmt.Errorf("store: WAL closed during sync")
		} else {
			err = f.Sync()
		}

		if err != nil {
			// A failed fsync leaves the kernel's dirty-page state unknown
			// (fsyncgate): no later fsync can prove these bytes durable, so
			// the WAL stays failed until a Reset truncates past the
			// unprovable bytes. Poison while holding mu (mu→syncMu) so the
			// flag cannot appear between Stage's under-mu check and its
			// frame write — which would leave a phantom record on disk.
			w.mu.Lock()
			w.syncMu.Lock()
			w.failed = fmt.Errorf("store: wal fsync: %w", err)
			w.mu.Unlock()
			w.syncing = false
			w.syncs++
			w.syncCond.Broadcast()
			continue
		}
		w.syncMu.Lock()
		w.syncing = false
		w.syncs++
		if w.epoch == epochAtStart && covered > w.synced {
			w.synced = covered
		}
		w.syncCond.Broadcast()
	}
}

// Failed returns the error poisoning the WAL, or nil.
func (w *WAL) Failed() error {
	w.syncMu.Lock()
	defer w.syncMu.Unlock()
	return w.failed
}

// Size returns the WAL's current byte size (header included).
func (w *WAL) Size() int64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.size
}

// SyncedSize returns the durable watermark: the byte offset every
// fsync so far has covered. Replication ships only bytes below it — a
// record beyond the watermark could vanish in a crash, and a follower
// that applied it would silently diverge from the recovered leader.
func (w *WAL) SyncedSize() int64 {
	w.syncMu.Lock()
	defer w.syncMu.Unlock()
	return w.synced
}

// GroupCommitStats reports (appends, fsyncs) since the WAL was opened;
// fsyncs < appends is group commit batching concurrent commits.
func (w *WAL) GroupCommitStats() (appends, syncs uint64) {
	w.syncMu.Lock()
	defer w.syncMu.Unlock()
	return w.appends, w.syncs
}

// Reset truncates the log back to its header — called after a snapshot
// made every logged record redundant. The truncation is itself synced.
// A successful Reset clears a write/fsync poisoning (the unprovably
// durable bytes are gone; the snapshot that triggered the Reset holds
// their effect) and supersedes every pending Commit.
func (w *WAL) Reset() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.f == nil {
		return fmt.Errorf("store: reset of closed WAL")
	}
	// Rewrite the header rather than assume it is intact: the file may
	// have been adopted with a torn header (crash during creation).
	if err := w.f.Truncate(0); err != nil {
		return err
	}
	if _, err := w.f.Seek(0, io.SeekStart); err != nil {
		return err
	}
	if _, err := w.f.Write([]byte(walMagic)); err != nil {
		return err
	}
	if err := w.f.Sync(); err != nil {
		return err
	}
	w.size = int64(len(walMagic))
	w.syncMu.Lock()
	w.synced = w.size
	w.failed = nil
	w.epoch++
	w.syncCond.Broadcast()
	w.syncMu.Unlock()
	return nil
}

// IsClosed reports whether Close has run (appends then fail).
func (w *WAL) IsClosed() bool {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.f == nil
}

// Close syncs and closes the file. Further appends fail.
func (w *WAL) Close() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.f == nil {
		return nil
	}
	err := w.f.Sync()
	if cerr := w.f.Close(); err == nil {
		err = cerr
	}
	w.f = nil
	return err
}

// errShortFrame is parseFrame's verdict on bytes that end before the
// frame they start does. What that means is the reader's policy: a torn
// tail to a file scan, a cut stream to ReadFrame, a full segment or a
// non-boundary cursor to ReadWALSegment.
var errShortFrame = errors.New("store: short WAL frame")

// parseFrame classifies the bytes at the head of b — the one reader of
// the frame format Stage writes (u32 payload length, u32 CRC-32C,
// payload, all little-endian). A whole valid frame returns its payload
// (aliasing b) and total size with a nil error. Bytes that end inside
// the frame return errShortFrame, with the frame's full size when the
// header was readable and 0 when b ends inside the header. An
// impossible length or a checksum mismatch is ErrCorrupt.
func parseFrame(b []byte) (payload []byte, size int64, err error) {
	if len(b) < walFrameHeader {
		return nil, 0, errShortFrame
	}
	length := int64(binary.LittleEndian.Uint32(b[0:4]))
	if length == 0 || length > maxWALRecord {
		return nil, 0, fmt.Errorf("%w: impossible record length %d", ErrCorrupt, length)
	}
	size = walFrameHeader + length
	if int64(len(b)) < size {
		return nil, size, errShortFrame
	}
	payload = b[walFrameHeader:size]
	if crc32.Checksum(payload, castagnoli) != binary.LittleEndian.Uint32(b[4:8]) {
		return nil, 0, fmt.Errorf("%w: record fails its checksum", ErrCorrupt)
	}
	return payload, size, nil
}

// checkWALHeader verifies the magic at the head of a WAL file, given
// the file's first bytes (at most len(walMagic) of them). A file that
// ends inside the magic, matching it so far, is a header torn by a crash
// during creation: no record can exist yet, so every reader — recovery,
// OffsetOfVersion, ReadWALSegment — sees an empty log (torn = true), and
// OpenWAL rewrites the header. Any other mismatch is ErrCorrupt.
func checkWALHeader(path string, head []byte) (torn bool, err error) {
	if len(head) <= len(walMagic) && string(head) == walMagic[:len(head)] {
		return len(head) < len(walMagic), nil
	}
	return false, fmt.Errorf("%w: %s: bad WAL magic %q", ErrCorrupt, path, head)
}

// ReplayWAL streams every complete, checksummed record of the file to
// fn in append order. A cleanly truncated tail — a partial frame header
// or a payload shorter than its length prefix, with nothing after it —
// is a torn write from a crash mid-append: the record was never
// acknowledged (Append returns only after fsync), so replay stops
// cleanly before it. Everything else that fails verification (bad
// magic, checksum mismatch, impossible length) is ErrCorrupt. An error
// from fn aborts the replay and is returned as-is.
//
// It returns the number of records delivered.
func ReplayWAL(path string, fn func(payload []byte) error) (int, error) {
	n := 0
	_, err := scanWAL(path, func(_ int64, payload []byte) (bool, error) {
		n++
		return false, fn(payload)
	})
	return n, err
}

// scanWAL walks the whole file's record stream, calling fn (when
// non-nil) with every verified record and the offset its frame starts
// at; fn returning stop ends the walk at that offset. Otherwise the
// walk ends, and returns the offset, just past the last complete record:
// a short frame at the tail is a torn, never-acknowledged append and is
// dropped. A torn header (see checkWALHeader) is an empty log whose end
// lies below WALStart, which is how OpenWAL knows to rewrite it.
func scanWAL(path string, fn func(off int64, payload []byte) (stop bool, err error)) (int64, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return 0, err
	}
	torn, err := checkWALHeader(path, data[:min(len(data), len(walMagic))])
	if err != nil {
		return 0, err
	}
	if torn {
		return int64(len(data)), nil
	}
	off := WALStart
	for {
		payload, size, err := parseFrame(data[off:])
		if errors.Is(err, errShortFrame) {
			return off, nil
		}
		if err != nil {
			return off, fmt.Errorf("%s: record at offset %d: %w", path, off, err)
		}
		if fn != nil {
			if stop, err := fn(off, payload); stop || err != nil {
				return off, err
			}
		}
		off += size
	}
}
