package partition

import (
	"math/rand"
	"reflect"
	"slices"
	"sync"
	"testing"
	"unsafe"

	"repro/internal/relation"
	"repro/internal/reltest"
)

// Views of one head at one snapshot may be taken from any number of
// goroutines at once: View writes nothing on the head (copy-on-write keys
// on the relation's snapshot count, not on a count of views), so under
// -race they do not race, the head is what it was, and every view is the
// same image of it.
func TestConcurrentViewsLeaveHeadUnwritten(t *testing.T) {
	rel := maintRel(400, 31)
	m := newMaintained(t, rel, 20)
	p := m.Partitioning()
	// Maintained batches first, so the head holds member lists of its own.
	for i := 0; i < 12; i++ {
		reltest.Append(rel, relation.F(float64(i)), relation.F(-float64(i)), relation.F(0.5))
	}
	if err := m.Insert(400, 401, 402, 403, 404, 405, 406, 407, 408, 409, 410, 411); err != nil {
		t.Fatal(err)
	}
	head, groups, gid := *p, snapshotOf(p), slices.Clone(p.GID)
	snap := rel.Snapshot()
	views := make([]*Partitioning, 4)
	var wg sync.WaitGroup
	for i := range views {
		wg.Add(1)
		go func() {
			defer wg.Done()
			views[i] = p.View(snap)
		}()
	}
	wg.Wait()
	if !reflect.DeepEqual(head, *p) || !reflect.DeepEqual(groups, snapshotOf(p)) || !slices.Equal(gid, p.GID) {
		t.Fatal("View wrote the head")
	}
	for i, v := range views {
		if v.Rel != snap || v.Serial() == 0 {
			t.Fatalf("view %d is bound to %p with serial %d", i, v.Rel, v.Serial())
		}
		equalPartitionings(t, views[0], v, "concurrent view")
		if err := v.CheckInvariants(); err != nil {
			t.Fatalf("view %d: %v", i, err)
		}
	}
}

// An irregular batch schedule that takes bare snapshots, with no View, as
// well as views: every kept snapshot and view stays what it was when
// taken, and between two snapshots each column, the tombstone bitmap and
// each member list is copied at most once — a new backing array appears
// at most once unless the storage outgrew its capacity (member lists in
// intervals with a split or merge are not counted: a reshape makes lists
// of its own).
func TestStorageCopiedOncePerSnapshot(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	rel := maintRel(400, 37)
	m := newMaintained(t, rel, 16)
	p := m.Partitioning()
	ncols := rel.Schema().Len()

	// seen is one piece of storage in the current interval: its array and
	// capacity, how often it was copied and in how many batches written.
	type seen struct {
		data            unsafe.Pointer
		cap             int
		copies, touched int
	}
	// observe records storage's array after a batch; growth past the
	// capacity is not a copy, nor is a first allocation.
	observe := func(sn *seen, data unsafe.Pointer, capacity, length int) {
		if data != sn.data {
			if sn.data != nil && length <= sn.cap {
				sn.copies++
			}
			sn.data, sn.cap = data, capacity
		}
	}
	// bitmap reads the relation's tombstone bitmap, which no method
	// returns: its array, capacity and length.
	bitmap := func() (unsafe.Pointer, int, int) {
		f := reflect.ValueOf(rel).Elem().FieldByName("deleted")
		return f.UnsafePointer(), f.Cap(), f.Len()
	}
	type keptSnap struct {
		snap    *relation.Relation
		cells   [][]float64
		deleted []bool
	}
	type keptView struct {
		view *Partitioning
		rows [][]int
	}
	var (
		snaps    []keptSnap
		views    []keptView
		cols     []*seen
		del      *seen
		lists    map[*gState]*seen
		reshapes uint64
		checked  [3]int // intervals with a column, the bitmap, a list written in two or more batches
	)
	closeInterval := func() {
		if del != nil { // not the first interval
			for _, sn := range append(slices.Clone(cols), del) {
				if sn.copies > 1 {
					t.Fatalf("snapshot %d: a column or the bitmap was copied %d times since the one before", len(snaps)+len(views), sn.copies)
				}
			}
			if cols[0].touched > 1 {
				checked[0]++
			}
			if del.touched > 1 {
				checked[1]++
			}
		}
		if st := m.Stats(); st.Splits+st.Merges == reshapes {
			for _, sn := range lists {
				if sn.copies > 1 {
					t.Fatalf("snapshot %d: a member list was copied %d times since the one before", len(snaps)+len(views), sn.copies)
				}
				if sn.touched > 1 {
					checked[2]++
				}
			}
		}
		reshapes = m.Stats().Splits + m.Stats().Merges
		cols = make([]*seen, ncols)
		for c := range cols {
			col := rel.FloatColumn(c)
			cols[c] = &seen{data: unsafe.Pointer(unsafe.SliceData(col)), cap: cap(col)}
		}
		data, capacity, _ := bitmap()
		del = &seen{data: data, cap: capacity}
		lists = map[*gState]*seen{}
		for gid, g := range p.Groups {
			lists[m.groups[gid]] = &seen{data: unsafe.Pointer(unsafe.SliceData(g.Rows)), cap: cap(g.Rows)}
		}
	}
	closeInterval()
	for batch := 0; batch < 240; batch++ {
		switch rng.Intn(6) {
		case 0:
			closeInterval()
			v := keptView{view: p.View(rel.Snapshot())}
			for _, g := range v.view.Groups {
				v.rows = append(v.rows, slices.Clone(g.Rows))
			}
			views = append(views, v)
		case 1:
			closeInterval()
			k := keptSnap{snap: rel.Snapshot()}
			for c := 0; c < ncols; c++ {
				k.cells = append(k.cells, slices.Clone(rel.FloatColumn(c)))
			}
			for row := 0; row < rel.Len(); row++ {
				k.deleted = append(k.deleted, rel.Deleted(row))
			}
			snaps = append(snaps, k)
		}
		live := rel.AllRows()
		rng.Shuffle(len(live), func(i, j int) { live[i], live[j] = live[j], live[i] })
		// One delete and three updates a batch, two inserts every fourth:
		// updates move a row a little and rewrite its weight.
		for _, row := range live[:4] {
			if sn := lists[m.groups[p.GID[row]]]; sn != nil {
				sn.touched++
			}
		}
		if err := rel.Delete(live[0]); err != nil {
			t.Fatal(err)
		}
		err := m.Delete(live[0])
		if err == nil {
			rows := live[1:4]
			err = UpdateRows([]*Maintainer{m}, rows, func(i int) error {
				for c, v := range []float64{rel.Float(rows[i], 0) + rng.NormFloat64()*0.01, rel.Float(rows[i], 1) + rng.NormFloat64()*0.01, rng.Float64()} {
					if err := rel.Set(rows[i], c, relation.F(v)); err != nil {
						return err
					}
				}
				return nil
			})
		}
		if err == nil && batch%4 == 3 {
			for i := 0; i < 2; i++ {
				reltest.Append(rel, relation.F(rng.NormFloat64()*10), relation.F(rng.NormFloat64()*10), relation.F(rng.Float64()))
			}
			err = m.Insert(rel.Len()-2, rel.Len()-1)
		}
		if err == nil {
			err = m.CheckInvariants()
		}
		if err != nil {
			t.Fatalf("batch %d: %v", batch, err)
		}
		for c, sn := range cols {
			col := rel.FloatColumn(c)
			observe(sn, unsafe.Pointer(unsafe.SliceData(col)), cap(col), len(col))
			sn.touched++
		}
		data, capacity, length := bitmap()
		observe(del, data, capacity, length)
		del.touched++
		for gid, g := range p.Groups {
			if sn := lists[m.groups[gid]]; sn != nil {
				observe(sn, unsafe.Pointer(unsafe.SliceData(g.Rows)), cap(g.Rows), len(g.Rows))
			}
		}
	}
	closeInterval()
	if len(snaps) < 20 || len(views) < 20 || checked[0] < 20 || checked[1] < 20 || checked[2] < 20 {
		t.Fatalf("%d bare snapshots, %d views; intervals with storage written in several batches: columns %d, bitmap %d, lists %d: the schedule tests nothing",
			len(snaps), len(views), checked[0], checked[1], checked[2])
	}
	for i, k := range snaps {
		for c, want := range k.cells {
			for row, v := range want {
				if got := k.snap.Float(row, c); got != v {
					t.Fatalf("snapshot %d: cell (%d, %d) reads %g, was %g", i, row, c, got, v)
				}
			}
		}
		for row, want := range k.deleted {
			if k.snap.Deleted(row) != want {
				t.Fatalf("snapshot %d: row %d's tombstone changed", i, row)
			}
		}
		if k.snap.Len() != len(k.deleted) {
			t.Fatalf("snapshot %d: %d rows, was %d", i, k.snap.Len(), len(k.deleted))
		}
	}
	for i, v := range views {
		for gid, g := range v.view.Groups {
			if !slices.Equal(g.Rows, v.rows[gid]) {
				t.Fatalf("view %d: group %d's member list changed after the view was taken", i, gid)
			}
		}
		if err := v.view.CheckInvariants(); err != nil {
			t.Fatalf("view %d: %v", i, err)
		}
	}
}
