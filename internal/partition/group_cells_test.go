package partition

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/relation"
	"repro/internal/reltest"
)

// TestGroupColumnSlotsScaleWithGroupsRead: the first GroupColumn on a view
// of some thousand groups over a 64-column schema allocates a pointer per
// group, the group's row of slots and the column — not a slot for every
// column of every group — and a second group's first read adds only its
// own row and column.
func TestGroupColumnSlotsScaleWithGroupsRead(t *testing.T) {
	const width = 64
	cols := make([]relation.Column, width)
	for c := range cols {
		cols[c] = relation.Column{Name: fmt.Sprintf("c%d", c), Type: relation.Float}
	}
	rel := relation.New("wide", reltest.Schema(cols...))
	rng := rand.New(rand.NewSource(5))
	vals := make([]relation.Value, width)
	for i := 0; i < 4000; i++ {
		for c := range vals {
			vals[c] = relation.F(rng.Float64())
		}
		reltest.Append(rel, vals...)
	}
	head, err := Build(rel, Options{Attrs: []string{"c0"}, SizeThreshold: 4})
	if err != nil {
		t.Fatal(err)
	}
	groups := len(head.Groups)
	if groups < 1000 {
		t.Fatalf("only %d groups", groups)
	}
	// bytesOf is what f allocates, the least of five tries over fresh views.
	bytesOf := func(f func(view *Partitioning)) uint64 {
		least := ^uint64(0)
		for try := 0; try < 5; try++ {
			view := head.View(rel.Snapshot())
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			f(view)
			runtime.ReadMemStats(&after)
			least = min(least, after.TotalAlloc-before.TotalAlloc)
		}
		return least
	}
	// Allowance for slice headers and the allocator's size classes (at
	// most an eighth over the size asked for).
	rounded := func(n uint64) uint64 { return n*9/8 + 128 }
	row, column := uint64(8*(width+1)), func(gid int) uint64 { return uint64(8 * len(head.Groups[gid].Rows)) }
	first := bytesOf(func(view *Partitioning) { view.GroupColumn(0, 3) })
	if limit := rounded(uint64(8*groups) + row + column(0)); first > limit {
		t.Errorf("first GroupColumn over %d groups × %d columns allocates %d bytes, want at most %d", groups, width, first, limit)
	}
	second := bytesOf(func(view *Partitioning) {
		view.GroupColumn(0, 3)
		view.GroupColumn(1, 3)
	}) - first
	if limit := rounded(row + column(1)); second > limit {
		t.Errorf("a second group's first GroupColumn allocates %d bytes, want at most %d", second, limit)
	}
}
