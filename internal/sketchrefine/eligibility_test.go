package sketchrefine

import (
	"math/rand"
	"slices"
	"sync/atomic"
	"testing"

	"repro/internal/core"
	"repro/internal/lp"
	"repro/internal/partition"
	"repro/internal/relation"
	"repro/internal/reltest"
	"repro/internal/workload"
)

// scanEligibility is the oracle: the definition of a group's eligible
// rows, computed the slow way — materialize the base relation with a
// scan, push every row through a row→gid map into a map of slices, and
// list the groups that received any. The row→gid map is the oracle's own,
// inverted from the member lists: a view carries none.
func scanEligibility(spec *core.Spec, part *partition.Partitioning) (map[int][]int, []int) {
	gidOf := make(map[int]int)
	for _, g := range part.Groups {
		for _, r := range g.Rows {
			gidOf[r] = g.ID
		}
	}
	eligible := make(map[int][]int)
	for _, r := range spec.BaseRows() {
		gid, ok := gidOf[r]
		if !ok {
			continue // row outside the (restricted) partitioning
		}
		eligible[gid] = append(eligible[gid], r)
	}
	var gids []int
	for _, g := range part.Groups {
		if len(eligible[g.ID]) > 0 {
			gids = append(gids, g.ID)
		}
	}
	return eligible, gids
}

// maintainedView drives a partitioning of rel through a seeded
// insert/delete/update stream long enough to split and merge groups, then
// freezes it the way an execution pins it: a relation snapshot and a View
// bound to it. Deleted rows stay behind as tombstones.
func maintainedView(t *testing.T, rel *relation.Relation, tau int, seed int64) *partition.Partitioning {
	t.Helper()
	m := partition.NewMaintainer(buildPart(t, rel, tau, 0), partition.MaintOptions{})
	rng := rand.New(rand.NewSource(seed))
	cats := []string{"x", "y", "z"}
	live := rel.AllRows()
	for op := 0; op < 600; op++ {
		switch r := rng.Float64(); {
		case r < 0.45:
			row := rel.Len()
			reltest.Append(rel, relation.F(1+rng.Float64()*9), relation.F(1+rng.Float64()*9), relation.S(cats[rng.Intn(3)]))
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
			if err := rel.Set(row, rng.Intn(2), relation.F(1+rng.Float64()*9)); err != nil {
				t.Fatal(err)
			}
			if err := m.Update(row); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := m.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if st := m.Stats(); st.Splits == 0 || st.Merges == 0 {
		t.Fatalf("stream too tame to test against: %d splits, %d merges", st.Splits, st.Merges)
	}
	return m.Partitioning().View(rel.Snapshot())
}

// TestEligibilityMatchesBaseRowScan: the group-aligned eligibility is the
// scan-and-regroup one — same groups, same rows, same order — over every
// kind of partitioning an evaluation is handed and every kind of filter.
func TestEligibilityMatchesBaseRowScan(t *testing.T) {
	fresh := genRel(600, 41)
	tomb := genRel(600, 42)
	for r := 0; r < tomb.Len(); r += 7 {
		if err := tomb.Delete(r); err != nil {
			t.Fatal(err)
		}
	}
	maintained := maintainedView(t, genRel(400, 43), 30, 44)
	restricted := maintainedView(t, genRel(400, 45), 30, 46)
	var every3rd []int
	for i, r := range restricted.Rel.AllRows() {
		if i%3 == 0 {
			every3rd = append(every3rd, r)
		}
	}
	parts := map[string]*partition.Partitioning{
		"fresh build":      buildPart(t, fresh, 40, 0),
		"tombstoned rows":  buildPart(t, tomb, 40, 0),
		"maintained view":  maintained,
		"restricted view":  restricted.Restrict(every3rd),
		"one row a group":  buildPart(t, genRel(50, 47), 1, 0),
		"one group of all": buildPart(t, genRel(50, 48), 50, 0),
	}
	where := relation.NewCompare("cat", relation.EQ, relation.S("x"))
	maxB := relation.NewCompare("b", relation.LE, relation.F(6)) // what MAX(P.b) <= 6 lowers to
	filters := map[string]func(*core.Spec){
		"no filter": func(*core.Spec) {},
		"where":     func(s *core.Spec) { s.Base = where },
		"max":       func(s *core.Spec) { s.Restrictions = []relation.Predicate{maxB} },
		"both":      func(s *core.Spec) { s.Base, s.Restrictions = where, []relation.Predicate{maxB} },
		"nothing passes": func(s *core.Spec) {
			s.Base = relation.NewCompare("a", relation.GT, relation.F(100))
		},
	}
	for pname, part := range parts {
		for fname, filter := range filters {
			spec := cardSpec(part.Rel, 5, 40)
			filter(spec)
			want, wantGIDs := scanEligibility(spec, part)
			got, gotGIDs, gotN, filtered := eligibleByGroup(spec, part)
			if !slices.Equal(gotGIDs, wantGIDs) {
				t.Errorf("%s / %s: gids %v, scan gives %v", pname, fname, gotGIDs, wantGIDs)
			}
			n := 0
			for gid, rows := range got {
				if !slices.Equal(rows, want[gid]) {
					t.Errorf("%s / %s: group %d rows %v, scan gives %v", pname, fname, gid, rows, want[gid])
				}
				n += len(rows)
			}
			if gotN != n || n != len(spec.FilterRows(allMembers(part))) {
				t.Errorf("%s / %s: n = %d, rows held %d", pname, fname, gotN, n)
			}
			if filtered != (spec.Filter() != nil) {
				t.Errorf("%s / %s: filtered = %v", pname, fname, filtered)
			}
			if !filtered && len(gotGIDs) > 0 {
				g := gotGIDs[0]
				if &got[g][0] != &part.Groups[g].Rows[0] {
					t.Errorf("%s / %s: unfiltered rows were copied, not shared", pname, fname)
				}
			}
		}
	}
}

// TestEligibilityTakesMemberListsAsTheyAre pins the one intended
// difference from the scan: member lists are not re-checked against the
// relation's tombstones, so a partitioning that was not maintained through
// a delete still offers the dead row (EvaluateCtx states the precondition);
// one that was agrees with the scan.
func TestEligibilityTakesMemberListsAsTheyAre(t *testing.T) {
	rel := genRel(200, 49)
	stale := buildPart(t, rel, 20, 0)
	m := partition.NewMaintainer(buildPart(t, rel, 20, 0), partition.MaintOptions{})
	victim := stale.Groups[0].Rows[0]
	if err := rel.Delete(victim); err != nil {
		t.Fatal(err)
	}
	if err := m.Delete(victim); err != nil {
		t.Fatal(err)
	}
	passesAll := relation.NewCompare("a", relation.GT, relation.F(0))
	for fname, base := range map[string]relation.Predicate{"no filter": nil, "filter": passesAll} {
		spec := cardSpec(rel, 5, 40)
		spec.Base = base
		if scan, _ := scanEligibility(spec, stale); slices.Contains(scan[0], victim) {
			t.Fatalf("%s: the scan offers deleted row %d", fname, victim)
		}
		if got, _, _, _ := eligibleByGroup(spec, stale); !slices.Contains(got[0], victim) {
			t.Errorf("%s: an unmaintained member list lost deleted row %d; EvaluateCtx's precondition is out of date", fname, victim)
		}
		want, _ := scanEligibility(spec, m.Partitioning())
		got, _, _, _ := eligibleByGroup(spec, m.Partitioning())
		for gid, rows := range got {
			if !slices.Equal(rows, want[gid]) {
				t.Errorf("%s: maintained group %d rows %v, scan gives %v", fname, gid, rows, want[gid])
			}
		}
	}
}

func allMembers(part *partition.Partitioning) []int {
	var rows []int
	for _, g := range part.Groups {
		rows = append(rows, g.Rows...)
	}
	return rows
}

// galaxyPart partitions n Galaxy rows the way the benchmark does: the
// workload's attributes, τ = 10 % of the table.
func galaxyPart(tb testing.TB, n int) (*relation.Relation, *partition.Partitioning) {
	tb.Helper()
	rel := workload.Galaxy(n, 1)
	queries, err := workload.GalaxyQueries(rel)
	if err != nil {
		tb.Fatal(err)
	}
	part, err := partition.Build(rel, partition.Options{Attrs: workload.WorkloadAttrs(queries), SizeThreshold: n / 10})
	if err != nil {
		tb.Fatal(err)
	}
	return rel, part
}

// galaxySpec is a cardinality query over Galaxy rows, optionally behind
// the kind of filter MAX(P.redshift) <= c lowers to.
func galaxySpec(rel *relation.Relation, filtered bool) *core.Spec {
	spec := &core.Spec{
		Rel:         rel,
		Constraints: []core.Constraint{{Coef: core.UnitCoef{}, Op: lp.EQ, RHS: 5}},
		Objective:   &core.Objective{Maximize: true, Coef: core.AttrCoef{Attr: "petrorad"}},
	}
	if filtered {
		spec.Restrictions = []relation.Predicate{relation.NewCompare("redshift", relation.LE, relation.F(0.1))}
	}
	return spec
}

// TestUnfilteredPrepareAllocsIndependentOfRows: without a filter, prepare
// does no per-row work — it allocates the same number of objects over a
// table ten times the size (the group count is what it scales with, and
// τ as a fraction of the table holds that still).
func TestUnfilteredPrepareAllocsIndependentOfRows(t *testing.T) {
	allocs := func(n int) float64 {
		rel, part := galaxyPart(t, n)
		if want := 10; part.NumGroups() < want {
			t.Fatalf("%d rows: %d groups", n, part.NumGroups())
		}
		spec := galaxySpec(rel, false)
		return testing.AllocsPerRun(20, func() {
			ev := &evaluator{spec: spec, part: part}
			if err := ev.prepare(nil); err != nil {
				t.Fatal(err)
			}
		})
	}
	small, large := allocs(20_000), allocs(200_000)
	if small != large {
		t.Errorf("prepare allocates %.0f objects at 20 000 rows and %.0f at 200 000", small, large)
	}
}

// TestFilteredPrepareAllocsIndependentOfRows: with the layout of an
// earlier evaluation over the same view supplied, a filtered spec's prepare
// does no per-row work either — the same number of objects over a table
// ten times the size — and the layout it reuses is the one it would lay
// out.
func TestFilteredPrepareAllocsIndependentOfRows(t *testing.T) {
	allocs := func(n int) float64 {
		rel, head := galaxyPart(t, n)
		part := head.View(rel.Snapshot())
		spec := galaxySpec(part.Rel, true)
		var memo atomic.Pointer[Layout]
		if err := (&evaluator{spec: spec, part: part, opt: Options{Layout: &memo}}).prepare(nil); err != nil {
			t.Fatal(err)
		}
		kept := memo.Load()
		rows, gids, _, _ := eligibleByGroup(spec, part)
		if kept == nil || !slices.Equal(kept.gids, gids) || !slices.EqualFunc(kept.rows, rows, slices.Equal) {
			t.Fatalf("%d rows: the kept layout is not the filter's", n)
		}
		avg := testing.AllocsPerRun(20, func() {
			ev := &evaluator{spec: spec, part: part, opt: Options{Layout: &memo}}
			if err := ev.prepare(nil); err != nil {
				t.Fatal(err)
			}
			if &ev.eligible[0] != &kept.rows[0] {
				t.Fatal("prepare laid the rows out again")
			}
		})
		if memo.Load() != kept {
			t.Fatalf("%d rows: reusing the layout replaced it", n)
		}
		return avg
	}
	small, large := allocs(20_000), allocs(200_000)
	if small != large {
		t.Errorf("prepare with a kept layout allocates %.0f objects at 20 000 rows and %.0f at 200 000", small, large)
	}
}

var benchSink [][]int

// BenchmarkEligibility is the layer's rung on the ladder: what one
// evaluation pays for its eligible rows at the benchmark's size, with and
// without a filter.
func BenchmarkEligibility(b *testing.B) {
	rel, part := galaxyPart(b, 200_000)
	for name, filtered := range map[string]bool{"unfiltered": false, "filtered": true} {
		b.Run(name, func(b *testing.B) {
			spec := galaxySpec(rel, filtered)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				benchSink, _, _, _ = eligibleByGroup(spec, part)
			}
		})
	}
	// What a filtered statement's later executions over one view pay: its
	// kept layout, reused.
	b.Run("filtered_reused", func(b *testing.B) {
		view := part.View(rel.Snapshot())
		spec := galaxySpec(view.Rel, true)
		var memo atomic.Pointer[Layout]
		if err := (&evaluator{spec: spec, part: view, opt: Options{Layout: &memo}}).prepare(nil); err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			ev := &evaluator{spec: spec, part: view, opt: Options{Layout: &memo}}
			if err := ev.prepare(nil); err != nil {
				b.Fatal(err)
			}
			benchSink = ev.eligible
		}
	})
}
