package partition

import (
	"math/rand"
	"testing"

	"repro/internal/relation"
	"repro/internal/reltest"
)

func restoreFixture(t *testing.T, n int, seed int64) *relation.Relation {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	r := relation.New("pts", reltest.Schema(
		relation.Column{Name: "x", Type: relation.Float},
		relation.Column{Name: "y", Type: relation.Float},
	))
	for i := 0; i < n; i++ {
		reltest.Append(r, relation.F(rng.Float64()*100), relation.F(rng.Float64()*100))
	}
	return r
}

// TestFromGroupsRoundTrip serializes a built partitioning's groups and
// reconstructs it with FromGroups: the result must satisfy every
// invariant and match the original group-for-group.
func TestFromGroupsRoundTrip(t *testing.T) {
	rel := restoreFixture(t, 500, 1)
	p, err := Build(rel, Options{Attrs: []string{"x", "y"}, SizeThreshold: 50})
	if err != nil {
		t.Fatal(err)
	}
	// Simulate a snapshot: copy only what the store serializes.
	groups := make([]Group, len(p.Groups))
	for i, g := range p.Groups {
		groups[i] = Group{
			Rows:     append([]int(nil), g.Rows...),
			Centroid: append([]float64(nil), g.Centroid...),
			Radius:   g.Radius,
		}
	}
	q, err := FromGroups(rel, p.Attrs, p.Tau, p.Omega, p.Workers, groups)
	if err != nil {
		t.Fatal(err)
	}
	if err := q.CheckInvariants(); err != nil {
		t.Fatalf("restored partitioning violates invariants: %v", err)
	}
	if q.NumGroups() != p.NumGroups() {
		t.Fatalf("restored %d groups, want %d", q.NumGroups(), p.NumGroups())
	}
	for gid := range p.Groups {
		if len(q.Groups[gid].Rows) != len(p.Groups[gid].Rows) {
			t.Fatalf("group %d has %d rows, want %d", gid, len(q.Groups[gid].Rows), len(p.Groups[gid].Rows))
		}
	}
	// Representatives are rebuilt, not serialized; they must agree.
	pr, qr := p.Representatives(), q.Representatives()
	for gid := 0; gid < pr.Len(); gid++ {
		for c := 0; c < pr.Schema().Len(); c++ {
			a, b := pr.Float(gid, c), qr.Float(gid, c)
			if a != b {
				t.Fatalf("rep[%d][%d] = %g, want %g", gid, c, b, a)
			}
		}
	}
}

func TestFromGroupsRejectsBadCoverage(t *testing.T) {
	rel := restoreFixture(t, 20, 2)
	p, err := Build(rel, Options{Attrs: []string{"x"}, SizeThreshold: 5})
	if err != nil {
		t.Fatal(err)
	}
	groups := append([]Group(nil), p.Groups...)
	groups = groups[:len(groups)-1] // drop a group: coverage hole
	if _, err := FromGroups(rel, p.Attrs, p.Tau, p.Omega, p.Workers, groups); err == nil {
		t.Fatal("FromGroups accepted groups that do not cover the relation")
	}
	// A restored snapshot is held to Build's attribute rules too.
	for _, attrs := range [][]string{{"x", "X"}, make([]string, 31), {"nope"}, nil} {
		if _, err := FromGroups(rel, attrs, p.Tau, p.Omega, p.Workers, p.Groups); err == nil {
			t.Errorf("FromGroups accepted attributes %q", attrs)
		}
	}
}

// TestRemapAfterCompact tombstones rows, maintains them out of the
// partitioning, compacts the relation, and remaps: the partitioning must
// stay invariant-clean over the renumbered rows and maintenance must
// keep working afterwards.
func TestRemapAfterCompact(t *testing.T) {
	rel := restoreFixture(t, 400, 3)
	p, err := Build(rel, Options{Attrs: []string{"x", "y"}, SizeThreshold: 40})
	if err != nil {
		t.Fatal(err)
	}
	m := NewMaintainer(p, MaintOptions{})
	rng := rand.New(rand.NewSource(7))
	deleted := map[int]bool{}
	for i := 0; i < 120; i++ {
		row := rng.Intn(rel.Len())
		if deleted[row] {
			continue
		}
		deleted[row] = true
		if err := rel.Delete(row); err != nil {
			t.Fatal(err)
		}
		if err := m.Delete(row); err != nil {
			t.Fatal(err)
		}
	}
	remap := rel.Compact()
	if remap == nil {
		t.Fatal("expected a remap")
	}
	if err := p.Remap(remap); err != nil {
		t.Fatal(err)
	}
	if err := m.CheckInvariants(); err != nil {
		t.Fatalf("after compact+remap: %v", err)
	}
	// Maintenance continues against the renumbered rows.
	reltest.Append(rel, relation.F(50), relation.F(50))
	if err := m.Insert(rel.Len() - 1); err != nil {
		t.Fatal(err)
	}
	if err := m.CheckInvariants(); err != nil {
		t.Fatalf("after post-compact insert: %v", err)
	}
	stats := m.Stats()
	m.RestoreStats(MaintStats{Inserts: stats.Inserts + 100})
	if got := m.Stats().Inserts; got != stats.Inserts+100 {
		t.Fatalf("RestoreStats: Inserts = %d, want %d", got, stats.Inserts+100)
	}
}

// TestRemapRejectsTombstonedMember guards the invariant that compaction
// may only run after tombstoned rows were maintained out of every group.
func TestRemapRejectsTombstonedMember(t *testing.T) {
	rel := restoreFixture(t, 50, 4)
	p, err := Build(rel, Options{Attrs: []string{"x"}, SizeThreshold: 10})
	if err != nil {
		t.Fatal(err)
	}
	if err := rel.Delete(0); err != nil {
		t.Fatal(err)
	}
	remap := rel.Compact()
	// Row 0 is still a member of some group: Remap must refuse.
	if err := p.Remap(remap); err == nil {
		t.Fatal("Remap accepted a group naming a compacted-away row")
	}
}
