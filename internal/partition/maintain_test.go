package partition

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/relation"
	"repro/internal/reltest"
)

// maintRel builds a small numeric relation for maintenance tests.
func maintRel(n int, seed int64) *relation.Relation {
	rng := rand.New(rand.NewSource(seed))
	r := relation.New("pts", reltest.Schema(
		relation.Column{Name: "x", Type: relation.Float},
		relation.Column{Name: "y", Type: relation.Float},
		relation.Column{Name: "w", Type: relation.Float},
	))
	for i := 0; i < n; i++ {
		reltest.Append(r, relation.F(rng.NormFloat64()*10), relation.F(rng.NormFloat64()*10), relation.F(rng.Float64()))
	}
	return r
}

func newMaintained(t *testing.T, rel *relation.Relation, tau int) *Maintainer {
	t.Helper()
	p, err := Build(rel, Options{Attrs: []string{"x", "y"}, SizeThreshold: tau, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	return NewMaintainer(p, MaintOptions{})
}

func TestMaintainerInsertRoutesAndSplits(t *testing.T) {
	rel := maintRel(200, 1)
	m := newMaintained(t, rel, 25)
	rng := rand.New(rand.NewSource(2))
	for batch := 0; batch < 10; batch++ {
		var rows []int
		for i := 0; i < 20; i++ {
			rows = append(rows, rel.Len())
			reltest.Append(rel, relation.F(rng.NormFloat64()*10), relation.F(rng.NormFloat64()*10), relation.F(rng.Float64()))
		}
		if err := m.Insert(rows...); err != nil {
			t.Fatal(err)
		}
		if err := m.CheckInvariants(); err != nil {
			t.Fatalf("after batch %d: %v", batch, err)
		}
	}
	if m.Stats().Splits == 0 {
		t.Error("200 inserts at τ=25 should have split at least one group")
	}
	if m.Stats().Rebuilds != 0 {
		t.Error("maintenance must never repartition from scratch")
	}
	// The audit compares representative values: a stale one is caught.
	reps := m.Partitioning().Reps
	if err := reps.Set(0, 3, relation.F(reps.Float(0, 3)+1)); err != nil {
		t.Fatal(err)
	}
	if err := m.CheckInvariants(); err == nil {
		t.Error("a stale representative passed the maintainer's CheckInvariants")
	}
}

func TestMaintainerDeleteMergesAndDrops(t *testing.T) {
	rel := maintRel(300, 3)
	m := newMaintained(t, rel, 30)
	rng := rand.New(rand.NewSource(4))
	live := rel.AllRows()
	for len(live) > 10 {
		i := rng.Intn(len(live))
		row := live[i]
		live = append(live[:i], live[i+1:]...)
		if err := rel.Delete(row); err != nil {
			t.Fatal(err)
		}
		if err := m.Delete(row); err != nil {
			t.Fatal(err)
		}
		if err := m.CheckInvariants(); err != nil {
			t.Fatalf("after deleting down to %d rows: %v", len(live), err)
		}
	}
	if m.Stats().Merges == 0 {
		t.Error("deleting 290 of 300 rows should have merged underfull groups")
	}
}

func TestMaintainerUpdateReroutes(t *testing.T) {
	rel := maintRel(100, 5)
	m := newMaintained(t, rel, 20)
	// Move a handful of rows far away; they must land in (possibly new)
	// groups and every invariant must hold.
	for _, row := range []int{3, 40, 77} {
		if err := rel.Set(row, 0, relation.F(500)); err != nil {
			t.Fatal(err)
		}
		if err := rel.Set(row, 1, relation.F(500)); err != nil {
			t.Fatal(err)
		}
		if err := m.Update(row); err != nil {
			t.Fatal(err)
		}
	}
	if err := m.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if m.Stats().Updates != 3 {
		t.Errorf("Updates = %d, want 3", m.Stats().Updates)
	}
}

// applyOps drives one deterministic interleaving of inserts, deletes,
// and updates against a fresh relation + maintainer and returns them.
func applyOps(t *testing.T, seed int64, nOps int, check bool) (*relation.Relation, *Maintainer) {
	t.Helper()
	rel := maintRel(150, seed)
	m := newMaintained(t, rel, 20)
	rng := rand.New(rand.NewSource(seed + 1000))
	live := rel.AllRows()
	for op := 0; op < nOps; op++ {
		switch r := rng.Float64(); {
		case r < 0.45 || len(live) < 5:
			row := rel.Len()
			reltest.Append(rel, relation.F(rng.NormFloat64()*10), relation.F(rng.NormFloat64()*10), relation.F(rng.Float64()))
			if err := m.Insert(row); err != nil {
				t.Fatal(err)
			}
			live = append(live, row)
		case r < 0.85:
			i := rng.Intn(len(live))
			row := live[i]
			live = append(live[:i], live[i+1:]...)
			if err := rel.Delete(row); err != nil {
				t.Fatal(err)
			}
			if err := m.Delete(row); err != nil {
				t.Fatal(err)
			}
		default:
			row := live[rng.Intn(len(live))]
			if err := rel.Set(row, rng.Intn(2), relation.F(rng.NormFloat64()*30)); err != nil {
				t.Fatal(err)
			}
			if err := m.Update(row); err != nil {
				t.Fatal(err)
			}
		}
		if check && op%25 == 24 {
			if err := m.CheckInvariants(); err != nil {
				t.Fatalf("seed %d op %d: %v", seed, op, err)
			}
		}
	}
	if err := m.CheckInvariants(); err != nil {
		t.Fatalf("seed %d final: %v", seed, err)
	}
	return rel, m
}

// Property: after any interleaving of inserts, deletes, and updates,
// every leaf respects τ, member lists stay sorted, the gid map agrees
// with the groups, radius bounds stay sound, and the representatives
// match the maintained centroids (all via CheckInvariants).
func TestMaintainerPropertyInterleavings(t *testing.T) {
	for seed := int64(0); seed < 6; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			t.Parallel()
			applyOps(t, seed, 400, true)
		})
	}
}

// Property: maintenance is deterministic — identical op sequences yield
// byte-identical groups, gid maps, and representatives.
func TestMaintainerDeterministic(t *testing.T) {
	_, m1 := applyOps(t, 42, 300, false)
	_, m2 := applyOps(t, 42, 300, false)
	p1, p2 := m1.Partitioning(), m2.Partitioning()
	if !reflect.DeepEqual(p1.GID, p2.GID) {
		t.Fatal("gid maps diverged across identical runs")
	}
	if len(p1.Groups) != len(p2.Groups) {
		t.Fatalf("group counts diverged: %d vs %d", len(p1.Groups), len(p2.Groups))
	}
	for gid := range p1.Groups {
		if !reflect.DeepEqual(p1.Groups[gid].Rows, p2.Groups[gid].Rows) {
			t.Fatalf("group %d membership diverged", gid)
		}
	}
	if p1.Reps.Len() != p2.Reps.Len() {
		t.Fatal("representative relations diverged")
	}
	for i := 0; i < p1.Reps.Len(); i++ {
		for c := 0; c < p1.Reps.Schema().Len(); c++ {
			if !p1.Reps.Value(i, c).Equal(p2.Reps.Value(i, c)) {
				t.Fatalf("rep cell (%d,%d) diverged", i, c)
			}
		}
	}
	if m1.Stats() != m2.Stats() {
		t.Fatalf("stats diverged: %+v vs %+v", m1.Stats(), m2.Stats())
	}
}

// The quality bound is 1 for a pristine partitioning's exact radii only
// when radii are zero; in general it is finite for non-zero data and
// shrinks back after healing.
func TestMaintainerQualityBound(t *testing.T) {
	rel := maintRel(100, 9)
	m := newMaintained(t, rel, 20)
	if b := m.QualityBound(true); b < 1 {
		t.Errorf("quality bound %g < 1", b)
	}
	before := m.MaxRadiusBound()
	// A burst of deletes inflates the bound via centroid shifts…
	rows := rel.AllRows()
	for _, row := range rows[:30] {
		if err := rel.Delete(row); err != nil {
			t.Fatal(err)
		}
		if err := m.Delete(row); err != nil {
			t.Fatal(err)
		}
	}
	if m.MaxRadiusBound() < before*0.5 {
		t.Log("bound shrank — merging dominated; acceptable")
	}
	// …and invariants still hold (bounds sound, reps consistent).
	if err := m.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// Regression: the degenerate-split fallback (duplicate tuples) chunks
// one backing array into several groups whose Rows alias each other; a
// maintained insert into one such group must not overwrite a sibling's
// members.
func TestMaintainerAliasedChunksSurviveInsert(t *testing.T) {
	rel := relation.New("dups", reltest.Schema(
		relation.Column{Name: "x", Type: relation.Float},
		relation.Column{Name: "y", Type: relation.Float},
	))
	for i := 0; i < 8; i++ {
		reltest.Append(rel, relation.F(1), relation.F(1)) // all identical → degenerate split
	}
	p, err := Build(rel, Options{Attrs: []string{"x", "y"}, SizeThreshold: 4, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	m := NewMaintainer(p, MaintOptions{})
	row := rel.Len()
	reltest.Append(rel, relation.F(1), relation.F(1))
	if err := m.Insert(row); err != nil {
		t.Fatal(err)
	}
	if err := m.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}
