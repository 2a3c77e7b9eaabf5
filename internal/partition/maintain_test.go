package partition

import (
	"cmp"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"
	"unsafe"

	"repro/internal/relation"
	"repro/internal/reltest"
	"repro/internal/workload"
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
	// The audit compares representative values: a stale one in a view of
	// the maintained head is caught (the head holds no R̃ to go stale).
	v := m.Partitioning().View(rel.Snapshot())
	if err := v.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	reps := v.Representatives()
	if err := reps.Set(0, 3, relation.F(reps.Float(0, 3)+1)); err != nil {
		t.Fatal(err)
	}
	if err := v.CheckInvariants(); err == nil {
		t.Error("a stale representative passed the view's CheckInvariants")
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

// mixedRow is one row of applyOps' relation: the partitioning attributes
// x and y, a numeric non-attribute of each type, and a TEXT column the
// maintainer must step over.
func mixedRow(rng *rand.Rand) []relation.Value {
	return []relation.Value{
		relation.F(rng.NormFloat64() * 10), relation.F(rng.NormFloat64() * 10), relation.F(rng.Float64()),
		relation.I(rng.Int63n(50)), relation.S(fmt.Sprint("t", rng.Intn(9))),
	}
}

// side is one of applyOps' two twins: a relation and its maintainer.
type side struct {
	rel *relation.Relation
	m   *Maintainer
}

func newSide(t *testing.T, seed int64, omega float64) side {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	rel := relation.New("pts", reltest.Schema(
		relation.Column{Name: "x", Type: relation.Float},
		relation.Column{Name: "y", Type: relation.Float},
		relation.Column{Name: "w", Type: relation.Float},
		relation.Column{Name: "k", Type: relation.Int},
		relation.Column{Name: "tag", Type: relation.String},
	))
	for i := 0; i < 150; i++ {
		reltest.Append(rel, mixedRow(rng)...)
	}
	p, err := Build(rel, Options{Attrs: []string{"x", "y"}, SizeThreshold: 20, RadiusLimit: omega, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	return side{rel, NewMaintainer(p, MaintOptions{})}
}

// sameStructure holds the UpdateRows side to the reference: identical
// member lists and gid maps, centroids and representatives within the
// package's one tolerance for running sums.
func sameStructure(t *testing.T, at string, got, ref *Maintainer) {
	t.Helper()
	p, q := got.p, ref.p
	if !reflect.DeepEqual(p.GID, q.GID) || len(p.Groups) != len(q.Groups) {
		t.Fatalf("%s: gid maps diverged (%d vs %d groups)", at, len(p.Groups), len(q.Groups))
	}
	reps, refReps := p.Representatives(), q.Representatives()
	for gid := range p.Groups {
		if !reflect.DeepEqual(p.Groups[gid].Rows, q.Groups[gid].Rows) {
			t.Fatalf("%s: group %d membership diverged", at, gid)
		}
		for a, c := range p.Groups[gid].Centroid {
			if drifted(c, q.Groups[gid].Centroid[a]) {
				t.Fatalf("%s: group %d centroid %v vs reference %v", at, gid, p.Groups[gid].Centroid, q.Groups[gid].Centroid)
			}
		}
		for pos := range p.numIdx {
			if drifted(reps.Float(gid, repCol(pos)), refReps.Float(gid, repCol(pos))) {
				t.Fatalf("%s: group %d representative diverged on numeric column %d", at, gid, pos)
			}
		}
	}
}

// applyOps drives one deterministic interleaving of inserts, deletes and
// updates — draining the table to empty and refilling it half way —
// through twin relations and maintainers: one re-routes every update
// around its Set (UpdateRows), the reference is told after the Set
// (Update) and heals. After every op the two must agree (sameStructure),
// both pass CheckInvariants when check is set, and healed, they are
// bit-equal. Odd seeds enforce a radius limit. It returns the UpdateRows
// side.
func applyOps(t *testing.T, seed int64, nOps int, check bool) (*relation.Relation, *Maintainer) {
	t.Helper()
	omega := float64(seed%2) * 12
	sides := [2]side{newSide(t, seed, omega), newSide(t, seed, omega)}
	got, ref := sides[0], sides[1]
	rng := rand.New(rand.NewSource(seed + 1000))
	live := got.rel.AllRows()
	draining, refill, updates := false, 0, uint64(0)
	for op := 0; op < nOps; op++ {
		if op == nOps/2 {
			draining = true
		}
		if draining && len(live) == 0 {
			draining, refill = false, 60
		}
		refill = max(refill-1, 0)
		var err [2]error
		switch r := rng.Float64(); {
		case !draining && (r < 0.45 || len(live) < 5 || refill > 0):
			row, vals := got.rel.Len(), mixedRow(rng)
			for i, s := range sides {
				reltest.Append(s.rel, vals...)
				err[i] = s.m.Insert(row)
			}
			live = append(live, row)
		case draining || r < 0.85:
			i := rng.Intn(len(live))
			row := live[i]
			live = append(live[:i], live[i+1:]...)
			for i, s := range sides {
				if err := s.rel.Delete(row); err != nil {
					t.Fatal(err)
				}
				err[i] = s.m.Delete(row)
			}
		default:
			row, col := live[rng.Intn(len(live))], []int{0, 1, 3, 4}[rng.Intn(4)]
			v := mixedRow(rng)[col]
			if col < 2 {
				v = relation.F(rng.NormFloat64() * 30)
			}
			err[0] = UpdateRows([]*Maintainer{got.m}, []int{row}, func(int) error { return got.rel.Set(row, col, v) })
			if err := ref.rel.Set(row, col, v); err != nil {
				t.Fatal(err)
			}
			err[1] = ref.m.Update(row)
			updates++
		}
		at := fmt.Sprintf("seed %d op %d", seed, op)
		for i, s := range sides {
			if err[i] != nil {
				t.Fatalf("%s side %d: %v", at, i, err[i])
			}
			if check || op == nOps-1 {
				if err := s.m.CheckInvariants(); err != nil {
					t.Fatalf("%s side %d: %v", at, i, err)
				}
			}
		}
		sameStructure(t, at, got.m, ref.m)
	}
	// An update that leaves before its Set never recomputes a group whole;
	// the reference heals the group each row leaves.
	if got.m.Stats().Heals != 0 || ref.m.Stats().Heals < updates/2 {
		t.Errorf("seed %d: %d updates healed %d times through UpdateRows, %d times in the reference",
			seed, updates, got.m.Stats().Heals, ref.m.Stats().Heals)
	}
	for gid := range got.m.p.Groups {
		got.m.heal(gid)
		ref.m.heal(gid)
		g, r := got.m.p.Groups[gid], ref.m.p.Groups[gid]
		if !reflect.DeepEqual(got.m.p.stats[gid].sums, ref.m.p.stats[gid].sums) || !reflect.DeepEqual(g.Centroid, r.Centroid) || g.Radius != r.Radius {
			t.Fatalf("seed %d: healed group %d differs from the reference's", seed, gid)
		}
	}
	return got.rel, got.m
}

// Property: after any interleaving of inserts, deletes, and updates,
// every leaf respects τ, member lists stay sorted, the gid map agrees
// with the groups, extremes and radii are exact, and the representatives
// match the maintained centroids (all via CheckInvariants).
func TestMaintainerPropertyInterleavings(t *testing.T) {
	for seed := int64(0); seed < 6; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			t.Parallel()
			_, m := applyOps(t, seed, 400, true)
			if st := m.Stats(); st.Splits == 0 || st.Merges == 0 {
				t.Errorf("the stream reached %d splits and %d merges", st.Splits, st.Merges)
			}
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
	r1, r2 := p1.Representatives(), p2.Representatives()
	if r1.Len() != r2.Len() {
		t.Fatal("representative relations diverged")
	}
	for i := 0; i < r1.Len(); i++ {
		for c := 0; c < r1.Schema().Len(); c++ {
			if !r1.Value(i, c).Equal(r2.Value(i, c)) {
				t.Fatalf("rep cell (%d,%d) diverged", i, c)
			}
		}
	}
	if m1.Stats() != m2.Stats() {
		t.Fatalf("stats diverged: %+v vs %+v", m1.Stats(), m2.Stats())
	}
}

// The quality bound is 1 only when every radius is zero; in general it is
// finite for non-zero data, and it follows the exact radii under deletes.
func TestMaintainerQualityBound(t *testing.T) {
	rel := maintRel(100, 9)
	m := newMaintained(t, rel, 20)
	if b := m.QualityBound(true); b < 1 {
		t.Errorf("quality bound %g < 1", b)
	}
	// A burst of deletes removes group extremes and moves centroids…
	rows := rel.AllRows()
	for _, row := range rows[:30] {
		if err := rel.Delete(row); err != nil {
			t.Fatal(err)
		}
		if err := m.Delete(row); err != nil {
			t.Fatal(err)
		}
	}
	// …and the radii stay exact (CheckInvariants), so the bound is the
	// largest of them.
	if err := m.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	want := 0.0
	for _, g := range m.Partitioning().Groups {
		want = max(want, relation.Radius(rel, m.Partitioning().AttrIdx, g.Rows, g.Centroid))
	}
	if got := m.MaxRadiusBound(); got != want {
		t.Errorf("MaxRadiusBound %g, the largest exact radius %g", got, want)
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

// Frozen views: a View taken between batches shares member lists with the
// head, and the maintainer edits lists in place within a batch. Whatever
// follows — splits, merges, dropped slots, a Compact + Remap, the
// duplicate-point chunks that share one backing array — every kept view's
// lists stay element for element what they were and each still passes
// CheckInvariants against its own snapshot. Multi-row UpdateRows batches
// also put splits, merges and extreme regathers between one row's Set and
// the next row's.
func TestMaintainerViewsStayFrozen(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	rel := relation.New("pts", reltest.Schema(
		relation.Column{Name: "x", Type: relation.Float},
		relation.Column{Name: "y", Type: relation.Float},
	))
	point := func(dup bool) []relation.Value {
		if dup {
			return []relation.Value{relation.F(1), relation.F(1)}
		}
		return []relation.Value{relation.F(rng.NormFloat64() * 10), relation.F(rng.NormFloat64() * 10)}
	}
	for i := 0; i < 120; i++ {
		reltest.Append(rel, point(i < 30)...)
	}
	p, err := Build(rel, Options{Attrs: []string{"x", "y"}, SizeThreshold: 12, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	m := NewMaintainer(p, MaintOptions{})
	type kept struct {
		view *Partitioning
		rows [][]int
	}
	var views []kept
	for batch := 0; batch < 90; batch++ {
		v := kept{view: p.View(rel.Snapshot())}
		for _, g := range v.view.Groups {
			v.rows = append(v.rows, slices.Clone(g.Rows))
		}
		views = append(views, v)
		live := rel.AllRows()
		rng.Shuffle(len(live), func(i, j int) { live[i], live[j] = live[j], live[i] })
		switch batch % 3 {
		case 0:
			var rows []int
			for i := 0; i < 9; i++ {
				rows = append(rows, rel.Len())
				reltest.Append(rel, point(i%3 == 0)...)
			}
			err = m.Insert(rows...)
		case 1:
			rows := live[:8]
			for _, row := range rows {
				if err := rel.Delete(row); err != nil {
					t.Fatal(err)
				}
			}
			err = m.Delete(rows...)
		default:
			rows := live[:25]
			err = UpdateRows([]*Maintainer{m}, rows, func(i int) error {
				for c, v := range point(i%5 == 0) {
					if err := rel.Set(rows[i], c, v); err != nil {
						return err
					}
				}
				return nil
			})
		}
		if err == nil && batch%30 == 29 {
			err = p.Remap(rel.Compact())
		}
		if err == nil {
			err = m.CheckInvariants()
		}
		if err != nil {
			t.Fatalf("batch %d: %v", batch, err)
		}
	}
	if st := m.Stats(); st.Splits == 0 || st.Merges == 0 {
		t.Errorf("the batches reached %d splits and %d merges", st.Splits, st.Merges)
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

// Views taken on an irregular schedule, so that member lists are edited in
// place across several batches between two of them: every view stays what
// it was when taken, and between two views a group's member list is copied
// at most once — a new backing array appears at most once per group, unless
// the list outgrew its capacity or a split or merge reshaped the groups.
// Most batches rewrite rows with the cells they hold, so most rows re-enter
// the group they left and most intervals see no split or merge.
func TestMaintainerViewsStayFrozenAcrossBatches(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	rel := maintRel(200, 23)
	m := newMaintained(t, rel, 16)
	p := m.Partitioning()
	type kept struct {
		view *Partitioning
		rows [][]int
	}
	type seen struct {
		data    *int
		cap     int
		copies  int
		touched int
	}
	var (
		views    []kept
		interval map[*gState]*seen
		reshapes uint64
		checked  int // groups edited in two or more batches of one interval
	)
	closeInterval := func() {
		if st := m.Stats(); st.Splits+st.Merges == reshapes {
			for _, sn := range interval {
				if sn.copies > 1 {
					t.Fatalf("view %d: a member list was copied %d times since the view before", len(views), sn.copies)
				}
				if sn.touched > 1 {
					checked++
				}
			}
		}
		interval, reshapes = map[*gState]*seen{}, m.Stats().Splits+m.Stats().Merges
		for gid, g := range p.Groups {
			interval[m.groups[gid]] = &seen{data: unsafe.SliceData(g.Rows), cap: cap(g.Rows)}
		}
	}
	closeInterval()
	for batch := 0; batch < 240; batch++ {
		if rng.Intn(5) == 0 {
			closeInterval()
			v := kept{view: p.View(rel.Snapshot())}
			for _, g := range v.view.Groups {
				v.rows = append(v.rows, slices.Clone(g.Rows))
			}
			views = append(views, v)
		}
		live := rel.AllRows()
		rng.Shuffle(len(live), func(i, j int) { live[i], live[j] = live[j], live[i] })
		rows := live[:4]
		for _, row := range rows {
			if sn := interval[m.groups[p.GID[row]]]; sn != nil {
				sn.touched++
			}
		}
		var err error
		switch batch % 8 {
		case 3:
			for i := 0; i < 2; i++ {
				reltest.Append(rel, relation.F(rng.NormFloat64()*10), relation.F(rng.NormFloat64()*10), relation.F(rng.Float64()))
			}
			err = m.Insert(rel.Len()-2, rel.Len()-1)
		case 7:
			for _, row := range rows[:2] {
				if err := rel.Delete(row); err != nil {
					t.Fatal(err)
				}
			}
			err = m.Delete(rows[:2]...)
		default:
			err = UpdateRows([]*Maintainer{m}, rows, func(i int) error {
				for c := 0; c < rel.Schema().Len(); c++ {
					if err := rel.Set(rows[i], c, rel.Value(rows[i], c)); err != nil {
						return err
					}
				}
				return nil
			})
		}
		if err == nil {
			err = m.CheckInvariants()
		}
		if err != nil {
			t.Fatalf("batch %d: %v", batch, err)
		}
		for gid, g := range p.Groups {
			sn := interval[m.groups[gid]]
			if sn == nil || unsafe.SliceData(g.Rows) == sn.data {
				continue
			}
			if len(g.Rows) <= sn.cap {
				sn.copies++ // a copy, not growth
			}
			sn.data, sn.cap = unsafe.SliceData(g.Rows), cap(g.Rows)
		}
	}
	closeInterval()
	if len(views) < 20 || checked < 20 {
		t.Fatalf("%d views and %d groups edited in several batches between two: the schedule tests nothing", len(views), checked)
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

// A member list that lacks the row its gid map names is a breach only the
// maintainer could have made: Delete, Update and UpdateRows report it and
// leave both as they were, rather than clearing the gid and leaving them
// to disagree.
func TestMaintainerReportsListGIDDisagreement(t *testing.T) {
	rel := maintRel(60, 7)
	m := newMaintained(t, rel, 20)
	p := m.Partitioning()
	row := p.Groups[0].Rows[1]
	p.Groups[0].Rows = slices.Delete(slices.Clone(p.Groups[0].Rows), 1, 2)
	updateRows := func(rows ...int) error {
		return UpdateRows([]*Maintainer{m}, rows, func(int) error { return nil })
	}
	for name, step := range map[string]func(...int) error{"Delete": m.Delete, "Update": m.Update, "UpdateRows": updateRows} {
		if err := step(row); err == nil || !strings.HasPrefix(err.Error(), "partition:") {
			t.Errorf("%s of a row its group's list lacks: error %v", name, err)
		}
		if p.GID[row] != 0 {
			t.Errorf("%s moved row %d's gid to %d", name, row, p.GID[row])
		}
	}
}

// Sums are never summed again on the write path — a group is recomputed
// whole only when it is split or an update's cells were written before it
// left (Update) — so rounding in the running sums could only grow. Over a
// long 50/30/20 insert/delete/update stream of Galaxy rows, every group's
// maintained sums stay within 1e-12 of relation.Sums, relative to the sum
// of the magnitudes added (the scale of a summation's rounding error; a
// column like dec, of either sign, can sum to near zero).
func TestMaintainerSumsDoNotDrift(t *testing.T) {
	const n, batches, batch = 20_000, 300, 100
	src := workload.Galaxy(n+batches*batch/2, 3)
	rel := src.Subset("galaxy", src.AllRows()[:n])
	p, err := Build(rel, Options{Attrs: workload.GalaxyAttrs, SizeThreshold: n / 10, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	m := NewMaintainer(p, MaintOptions{})
	rng := rand.New(rand.NewSource(4))
	live := rel.AllRows()
	take := func(k int) []int { // k distinct live rows, taken out of live
		rows := make([]int, k)
		for j := range rows {
			i := rng.Intn(len(live))
			rows[j], live[i] = live[i], live[len(live)-1]
			live = live[:len(live)-1]
		}
		return rows
	}
	for b := 0; b < batches; b++ {
		ins := make([]int, batch/2)
		for j := range ins {
			ins[j] = rel.Len()
			reltest.Append(rel, src.Row(n+b*batch/2+j)...)
		}
		if err := m.Insert(ins...); err != nil {
			t.Fatal(err)
		}
		live = append(live, ins...)
		del := take(batch * 3 / 10)
		for _, row := range del {
			if err := rel.Delete(row); err != nil {
				t.Fatal(err)
			}
		}
		if err := m.Delete(del...); err != nil {
			t.Fatal(err)
		}
		upd := take(batch / 5)
		err := UpdateRows([]*Maintainer{m}, upd, func(i int) error {
			for c, v := range src.Row(rng.Intn(src.Len())) {
				if err := rel.Set(upd[i], c, v); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		live = append(live, upd...)
	}
	worst := 0.0
	for gid, g := range p.Groups {
		exact := relation.Sums(rel, p.numIdx, g.Rows)
		for pos, c := range p.numIdx {
			scale := 0.0
			for _, r := range g.Rows {
				scale += math.Abs(rel.Float(r, c))
			}
			if e := math.Abs(p.stats[gid].sums[pos]-exact[pos]) / scale; e > worst {
				worst = e
			}
		}
	}
	if worst > 1e-12 {
		t.Errorf("maintained sums drifted %.3g relative from relation.Sums, over 1e-12", worst)
	}
	t.Logf("%d groups after %d row ops; worst relative sum drift %.3g", len(p.Groups), batches*batch, worst)
	if err := m.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// UpdateRows takes each row out of its groups before set writes it, so
// between two rows of one batch every group holds its members at the
// cells the relation shows: inside set, before the write, each group's
// sums are relation.Sums' of its members (within 1e-12 of the magnitudes
// summed) and its extremes relation.Extremes', bit for bit. The batch
// opens with a row that holds an extreme of its group, then moves rows
// onto the centroid of the largest group g until it splits, and ends with
// g's own members, still waiting in it when it splits.
func TestUpdateRowsKeepsGroupsAtTheRelationsCells(t *testing.T) {
	for _, omega := range []float64{0, 8} {
		t.Run(fmt.Sprintf("omega%g", omega), func(t *testing.T) {
			rel := maintRel(150, 13)
			p, err := Build(rel, Options{Attrs: []string{"x", "y"}, SizeThreshold: 12, RadiusLimit: omega, Workers: 1})
			if err != nil {
				t.Fatal(err)
			}
			m := NewMaintainer(p, MaintOptions{})
			g := slices.MaxFunc(p.Groups, func(a, b Group) int { return len(a.Rows) - len(b.Rows) })
			target, members := slices.Clone(g.Centroid), slices.Clone(g.Rows)
			h := p.Groups[(g.ID+1)%len(p.Groups)].Rows
			extreme := slices.MaxFunc(h, func(a, b int) int { return cmp.Compare(rel.Float(a, 0), rel.Float(b, 0)) })
			rows := []int{extreme}
			for _, r := range rel.AllRows() {
				if len(rows) < 16 && r != extreme && p.GID[r] != g.ID {
					rows = append(rows, r)
				}
			}
			movers := len(rows)
			rows = append(rows, members...)
			rng := rand.New(rand.NewSource(14))
			split := false
			err = UpdateRows([]*Maintainer{m}, rows, func(i int) error {
				for gid, grp := range p.Groups {
					st, exact := p.stats[gid], relation.Sums(rel, p.numIdx, grp.Rows)
					for pos, c := range p.numIdx {
						scale := 0.0
						for _, r := range grp.Rows {
							scale += math.Abs(rel.Float(r, c))
						}
						if math.Abs(st.sums[pos]-exact[pos]) > 1e-12*scale {
							t.Fatalf("before row %d: group %d sums %v, its members' %v", i, gid, st.sums, exact)
						}
					}
					if lo, hi := relation.Extremes(rel, p.AttrIdx, grp.Rows); !slices.Equal(lo, st.lo) || !slices.Equal(hi, st.hi) {
						t.Fatalf("before row %d: group %d extremes [%v, %v], its members' [%v, %v]", i, gid, st.lo, st.hi, lo, hi)
					}
				}
				x, y := rng.NormFloat64()*10, rng.NormFloat64()*10
				if i < movers {
					x, y = target[0]+rng.Float64()*1e-3, target[1]+rng.Float64()*1e-3
				}
				if i == movers { // g's members, all still in the batch, sit in more than one group
					gids := map[int]bool{}
					for _, r := range members {
						gids[p.GID[r]] = true
					}
					split = len(gids) > 1
				}
				for c, v := range []float64{x, y, rng.Float64()} {
					if err := rel.Set(rows[i], c, relation.F(v)); err != nil {
						return err
					}
				}
				return nil
			})
			if err == nil {
				err = m.CheckInvariants()
			}
			if err != nil {
				t.Fatal(err)
			}
			if !split || m.Stats().Splits == 0 {
				t.Errorf("the batch split no group still holding its later rows (split %v, %d splits)", split, m.Stats().Splits)
			}
		})
	}
}

// BenchmarkMaintainer is the committed command behind ROADMAP 2(a)'s gate
// (update ≤ 2 × (insert + delete) per row): paqbench's ingest setting —
// 200 000 Galaxy rows, the ten workload attributes, τ = 10 % — in batches
// of 100 with a View between them, reported per row. update runs
// UpdateRows, cell writes included: before the timer, one cell of each
// column is rewritten to its own value, so the copy-on-write clone the View
// forces is not timed. update_no_preimage is Update after the Set.
// heals/op counts the whole-group recomputations per batch, which only
// update_no_preimage makes.
func BenchmarkMaintainer(b *testing.B) {
	const n, batch = 200_000, 100
	src := workload.Galaxy(n+n/10, 1)
	vals := func(rng *rand.Rand) []relation.Value { return src.Row(rng.Intn(src.Len())) }
	for _, kind := range []string{"insert", "delete", "update", "update_no_preimage"} {
		b.Run(kind, func(b *testing.B) {
			rng := rand.New(rand.NewSource(2))
			rel := src.Subset("galaxy", src.AllRows()[:n])
			p, err := Build(rel, Options{Attrs: workload.GalaxyAttrs, SizeThreshold: n / 10})
			if err != nil {
				b.Fatal(err)
			}
			m := NewMaintainer(p, MaintOptions{})
			set := func(row int, vs []relation.Value) error {
				for c, v := range vs {
					if err := rel.Set(row, c, v); err != nil {
						return err
					}
				}
				return nil
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				p.View(rel.Snapshot())
				rows, next := make([]int, batch), make([][]relation.Value, batch)
				for j := range rows {
					switch kind {
					case "insert":
						rows[j] = rel.Len()
						reltest.Append(rel, vals(rng)...)
					case "delete":
						rows[j] = (i*batch + j) * 7 % n
						if err := rel.Delete(rows[j]); err != nil {
							b.Fatal(err)
						}
					default:
						rows[j], next[j] = n/2+(i*batch+j)*7%(n/2), vals(rng)
					}
				}
				switch kind {
				case "update":
					err = set(rows[0], rel.Row(rows[0]))
				case "update_no_preimage":
					for j, row := range rows {
						if err = set(row, next[j]); err != nil {
							break
						}
					}
				}
				if err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
				switch kind {
				case "insert":
					err = m.Insert(rows...)
				case "delete":
					err = m.Delete(rows...)
				case "update":
					err = UpdateRows([]*Maintainer{m}, rows, func(j int) error { return set(rows[j], next[j]) })
				default:
					err = m.Update(rows...)
				}
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Microseconds())/float64(b.N*batch), "µs/row")
			b.ReportMetric(float64(m.Stats().Heals)/float64(b.N), "heals/op")
		})
	}
}
