package store

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
)

func walPath(t *testing.T) string {
	t.Helper()
	return filepath.Join(t.TempDir(), walFile)
}

func TestWALAppendReplayRoundTrip(t *testing.T) {
	path := walPath(t)
	w, err := CreateWAL(path)
	if err != nil {
		t.Fatal(err)
	}
	var want [][]byte
	for i := 0; i < 50; i++ {
		p := []byte(fmt.Sprintf("record-%04d-%s", i, string(bytes.Repeat([]byte{byte(i)}, i))))
		want = append(want, p)
		if err := w.Append(p); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	var got [][]byte
	n, err := ReplayWAL(path, func(p []byte) error {
		got = append(got, append([]byte(nil), p...))
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if n != len(want) {
		t.Fatalf("replayed %d records, want %d", n, len(want))
	}
	for i := range want {
		if !bytes.Equal(got[i], want[i]) {
			t.Fatalf("record %d = %q, want %q", i, got[i], want[i])
		}
	}
}

func TestWALGroupCommitConcurrent(t *testing.T) {
	path := walPath(t)
	w, err := CreateWAL(path)
	if err != nil {
		t.Fatal(err)
	}
	const writers, each = 8, 25
	var wg sync.WaitGroup
	for g := 0; g < writers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				if err := w.Append([]byte(fmt.Sprintf("w%d-%d", g, i))); err != nil {
					t.Errorf("append: %v", err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	appends, syncs := w.GroupCommitStats()
	if appends != writers*each {
		t.Fatalf("appends = %d, want %d", appends, writers*each)
	}
	if syncs == 0 || syncs > appends {
		t.Fatalf("syncs = %d out of range (0, %d]", syncs, appends)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	n, err := ReplayWAL(path, func([]byte) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	if n != writers*each {
		t.Fatalf("replayed %d records, want %d", n, writers*each)
	}
}

func TestWALReopenAppends(t *testing.T) {
	path := walPath(t)
	w, err := CreateWAL(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Append([]byte("first")); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	// Simulate a torn append: garbage bytes after the last record.
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{0x07, 0x00}); err != nil {
		t.Fatal(err)
	}
	f.Close()

	w, err = OpenWAL(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Append([]byte("second")); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	var got []string
	if _, err := ReplayWAL(path, func(p []byte) error {
		got = append(got, string(p))
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0] != "first" || got[1] != "second" {
		t.Fatalf("records = %v, want [first second]", got)
	}
}

func TestWALResetTruncates(t *testing.T) {
	path := walPath(t)
	w, err := CreateWAL(path)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if err := w.Append([]byte("x")); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Reset(); err != nil {
		t.Fatal(err)
	}
	if w.Size() != int64(len(walMagic)) {
		t.Fatalf("size after reset = %d, want %d", w.Size(), len(walMagic))
	}
	if err := w.Append([]byte("after")); err != nil {
		t.Fatal(err)
	}
	w.Close()
	var got []string
	if _, err := ReplayWAL(path, func(p []byte) error {
		got = append(got, string(p))
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0] != "after" {
		t.Fatalf("records = %v, want [after]", got)
	}
}

// TestWALResetDuringCommitsKeepsSyncInvariant stresses Reset racing
// group-commit fsyncs: a Reset that lands while a leader is mid-fsync
// must not let the leader publish its pre-truncation offset as synced
// (the epoch guard in syncTo), or later commits would see
// synced >= target and return without any fsync — acknowledging
// non-durable mutations.
func TestWALResetDuringCommitsKeepsSyncInvariant(t *testing.T) {
	path := walPath(t)
	w, err := CreateWAL(path)
	if err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				if err := w.Append([]byte(fmt.Sprintf("g%d-%d", g, i))); err != nil {
					t.Errorf("append: %v", err)
					return
				}
			}
		}(g)
	}
	for r := 0; r < 100; r++ {
		if err := w.Reset(); err != nil {
			t.Fatal(err)
		}
		// Holding mu blocks Stage and Reset, so size and synced read as
		// a consistent pair; synced > size is exactly the state that let
		// commits skip their fsync before the epoch guard.
		w.mu.Lock()
		size := w.size
		w.syncMu.Lock()
		synced := w.synced
		w.syncMu.Unlock()
		w.mu.Unlock()
		if synced > size {
			t.Fatalf("after reset %d: synced = %d > size = %d; commits would skip their fsync", r, synced, size)
		}
	}
	close(stop)
	wg.Wait()
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := ReplayWAL(path, func([]byte) error { return nil }); err != nil {
		t.Fatal(err)
	}
}

func TestWALBadMagicIsCorrupt(t *testing.T) {
	path := walPath(t)
	if err := os.WriteFile(path, []byte("NOTAWAL0garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ReplayWAL(path, func([]byte) error { return nil }); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("err = %v, want ErrCorrupt", err)
	}
	if _, err := OpenWAL(path); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("OpenWAL err = %v, want ErrCorrupt", err)
	}
}

// TestWALTornHeaderOneAnswer pins the single answer every reader gives
// for a header torn by a crash during creation: an empty log, not
// corruption (OffsetOfVersion used to say ErrCorrupt where recovery said
// empty). A short file that is not a prefix of the magic stays corrupt.
func TestWALTornHeaderOneAnswer(t *testing.T) {
	cases := []struct {
		name    string
		data    string
		corrupt bool
	}{
		{"empty file", "", false},
		{"one byte", walMagic[:1], false},
		{"all but one byte", walMagic[:len(walMagic)-1], false},
		{"whole header", walMagic, false},
		{"short, not the magic", "PAQX", true},
		{"full length, not the magic", "NOTAWAL0", true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			path := walPath(t)
			if err := os.WriteFile(path, []byte(tc.data), 0o644); err != nil {
				t.Fatal(err)
			}
			n, replayErr := ReplayWAL(path, func([]byte) error { return nil })
			off, offErr := OffsetOfVersion(path, 7)
			seg, end, segErr := ReadWALSegment(path, WALStart, 0, 0)
			if tc.corrupt {
				for reader, err := range map[string]error{"ReplayWAL": replayErr, "OffsetOfVersion": offErr, "ReadWALSegment": segErr} {
					if !errors.Is(err, ErrCorrupt) {
						t.Errorf("%s: err = %v, want ErrCorrupt", reader, err)
					}
				}
				if _, err := OpenWAL(path); !errors.Is(err, ErrCorrupt) {
					t.Errorf("OpenWAL: err = %v, want ErrCorrupt", err)
				}
				return
			}
			if n != 0 || replayErr != nil {
				t.Errorf("ReplayWAL = (%d, %v), want (0, nil)", n, replayErr)
			}
			if off != WALStart || offErr != nil {
				t.Errorf("OffsetOfVersion = (%d, %v), want (%d, nil)", off, offErr, WALStart)
			}
			if len(seg) != 0 || end != WALStart || segErr != nil {
				t.Errorf("ReadWALSegment = (%d bytes, %d, %v), want (0, %d, nil)", len(seg), end, segErr, WALStart)
			}
			// OpenWAL rewrites the header, so the first append lands at
			// WALStart and replays.
			w, err := OpenWAL(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := w.Append([]byte("first")); err != nil {
				t.Fatal(err)
			}
			if err := w.Close(); err != nil {
				t.Fatal(err)
			}
			if n, err := ReplayWAL(path, func([]byte) error { return nil }); n != 1 || err != nil {
				t.Errorf("after reopen: ReplayWAL = (%d, %v), want (1, nil)", n, err)
			}
		})
	}
}
