package relation

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"
)

// rowImage is the serial twin of one live row: its index and cell
// values captured while no mutation was running.
type rowImage struct {
	row  int
	vals []string
}

// imageOf captures the live rows of r (indices and rendered cells) —
// the serial-twin state a snapshot taken now must reproduce forever.
func imageOf(r *Relation) []rowImage {
	rows := r.AllRows()
	out := make([]rowImage, len(rows))
	for i, row := range rows {
		vals := make([]string, r.Schema().Len())
		for c := range vals {
			vals[c] = r.Value(row, c).String()
		}
		out[i] = rowImage{row: row, vals: vals}
	}
	return out
}

// checkSnapshot asserts snap exposes exactly the row set and cell
// values of its twin image.
func checkSnapshot(snap *Relation, want []rowImage) error {
	rows := snap.AllRows()
	if len(rows) != len(want) {
		return fmt.Errorf("snapshot v%d has %d live rows, twin has %d", snap.Version(), len(rows), len(want))
	}
	for i, row := range rows {
		if row != want[i].row {
			return fmt.Errorf("snapshot v%d live row %d is index %d, twin has %d", snap.Version(), i, row, want[i].row)
		}
		for c, wv := range want[i].vals {
			if got := snap.Value(row, c).String(); got != wv {
				return fmt.Errorf("snapshot v%d cell (%d,%d) = %q, twin has %q", snap.Version(), row, c, got, wv)
			}
		}
	}
	return nil
}

// TestSnapshotIsolationInterleaved is the MVCC property test at the
// storage layer: a mutator applies a randomized interleaving of
// Append/Delete/Set/Compact to head while reader goroutines repeatedly
// re-verify previously taken snapshots against serial-twin images
// captured at snapshot time. Any copy-on-write path that lets a head
// mutation leak into a published snapshot fails the differential check;
// any unsynchronized sharing fails the race detector.
func TestSnapshotIsolationInterleaved(t *testing.T) {
	const (
		ops       = 400
		snapEvery = 17
		readers   = 4
	)
	r := compactFixture(t, 60)

	type pinnedSnap struct {
		snap *Relation
		want []rowImage
	}
	var (
		mu   sync.Mutex
		pins []pinnedSnap
	)
	takeSnap := func() {
		snap := r.Snapshot()
		if snap.Version() != r.Version() {
			t.Errorf("snapshot version %d != head version %d at capture", snap.Version(), r.Version())
		}
		mu.Lock()
		pins = append(pins, pinnedSnap{snap: snap, want: imageOf(r)})
		mu.Unlock()
	}
	takeSnap() // version 0 is pinned for the whole run

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < readers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(100 + g)))
			for {
				select {
				case <-stop:
					return
				default:
				}
				mu.Lock()
				p := pins[rng.Intn(len(pins))]
				mu.Unlock()
				if err := checkSnapshot(p.snap, p.want); err != nil {
					t.Error(err)
					return
				}
				// Snapshots refuse mutations outright.
				if err := p.snap.Delete(0); !errors.Is(err, ErrImmutable) {
					t.Errorf("Delete on snapshot: err = %v, want ErrImmutable", err)
					return
				}
			}
		}(g)
	}

	// The mutator runs on the test goroutine: it is the only writer, so
	// imageOf captures between its ops are consistent by construction.
	rng := rand.New(rand.NewSource(42))
	id := int64(1000)
	for op := 0; op < ops && !t.Failed(); op++ {
		live := r.AllRows()
		switch k := rng.Float64(); {
		case k < 0.35 || len(live) < 10:
			r.mustAppend(I(id), F(rng.Float64()*100), S(string(rune('a'+id%26))))
			id++
		case k < 0.55:
			if err := r.Delete(live[rng.Intn(len(live))]); err != nil {
				t.Fatalf("op %d delete: %v", op, err)
			}
		case k < 0.9:
			row := live[rng.Intn(len(live))]
			if err := r.Set(row, 1, F(-rng.Float64())); err != nil {
				t.Fatalf("op %d set: %v", op, err)
			}
		default:
			// Compaction renumbers head in place; every pinned snapshot
			// must keep its own pre-compaction row set.
			r.Compact()
		}
		if op%snapEvery == 0 {
			takeSnap()
		}
	}
	close(stop)
	wg.Wait()

	// Quiesced: every snapshot taken during the run still matches its
	// serial twin, oldest (pre-mutation) first.
	for i, p := range pins {
		if err := checkSnapshot(p.snap, p.want); err != nil {
			t.Errorf("pin %d after quiesce: %v", i, err)
		}
	}
}

// TestSnapshotAcrossCompactKeepsRowSet pins the compaction corner
// deterministically: a snapshot taken before Compact must keep serving
// the old row numbering and values after head renumbers.
func TestSnapshotAcrossCompactKeepsRowSet(t *testing.T) {
	r := compactFixture(t, 10)
	for _, row := range []int{1, 4, 7} {
		if err := r.Delete(row); err != nil {
			t.Fatal(err)
		}
	}
	snap := r.Snapshot()
	want := imageOf(r)

	if remap := r.Compact(); remap == nil {
		t.Fatal("Compact returned nil remap with tombstones present")
	}
	if err := checkSnapshot(snap, want); err != nil {
		t.Fatalf("after head compact: %v", err)
	}
	// Head moved on; the snapshot's version must still be its own.
	if snap.Version() == r.Version() {
		t.Fatalf("snapshot version %d tracked head across Compact", snap.Version())
	}
	// A snapshot taken after the compaction sees the new numbering.
	if err := checkSnapshot(r.Snapshot(), imageOf(r)); err != nil {
		t.Fatalf("post-compact snapshot: %v", err)
	}
}

// A copy-on-write clone keeps the column's spare capacity, so the Append
// that follows a Set finds room and the column is cloned once, not twice;
// the snapshot goes on reading the old cell and the old Len.
func TestCopyOnWriteKeepsCapacity(t *testing.T) {
	r := New("t", mustSchema(Column{Name: "v", Type: Float}, Column{Name: "k", Type: Int}, Column{Name: "s", Type: String}))
	for i := 0; i < 9; i++ { // one Append past the growth step at 8
		r.mustAppend(F(float64(i)), I(int64(i)), S("old"))
	}
	if cap(r.cols[0].f) == 9 || cap(r.cols[1].i) == 9 || cap(r.cols[2].s) == 9 {
		t.Fatal("the fixture's columns have no spare capacity")
	}
	snap := r.Snapshot()
	for c, v := range []Value{F(99), I(99), S("new")} {
		if err := r.Set(4, c, v); err != nil {
			t.Fatal(err)
		}
	}
	backing := func() [3]any { return [3]any{&r.cols[0].f[0], &r.cols[1].i[0], &r.cols[2].s[0]} }
	afterSet := backing()
	if afterSet == [3]any{&snap.cols[0].f[0], &snap.cols[1].i[0], &snap.cols[2].s[0]} {
		t.Fatal("Set wrote through storage the snapshot shares")
	}
	r.mustAppend(F(9), I(9), S("old"))
	if backing() != afterSet {
		t.Error("the Append after a copy-on-write Set copied the columns a second time")
	}
	if snap.Len() != 9 || snap.Float(4, 0) != 4 || snap.IntColumn(1)[4] != 4 || snap.Str(4, 2) != "old" {
		t.Errorf("snapshot reads Len %d and row 4 = %v", snap.Len(), snap.Row(4))
	}
	if r.Len() != 10 || r.Float(4, 0) != 99 || r.Str(4, 2) != "new" || r.Float(9, 0) != 9 {
		t.Errorf("head reads Len %d, row 4 = %v, row 9 = %v", r.Len(), r.Row(4), r.Row(9))
	}
}

// BenchmarkSetAfterSnapshot is the copy-on-write cost of one update batch
// while a solve pins a snapshot: 100 random rows rewritten on every column
// of a 200 000-row, 11-column table, after each Snapshot. B/op is what the
// batch copies.
func BenchmarkSetAfterSnapshot(b *testing.B) {
	r, cols, _ := centroidFixture(200_000)
	rng := rand.New(rand.NewSource(9))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = r.Snapshot()
		for k := 0; k < 100; k++ {
			row := rng.Intn(r.Len())
			for _, c := range cols {
				if err := r.Set(row, c, I(int64(k))); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
}
