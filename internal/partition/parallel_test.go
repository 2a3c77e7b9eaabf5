package partition

import (
	"fmt"
	"runtime"
	"slices"
	"testing"

	"repro/internal/relation"
	"repro/internal/workload"
)

// equalPartitionings asserts that two partitionings are identical in
// every observable respect: group IDs, member rows (order included),
// exact centroid and radius bits, the gid assignment vector, and the
// representative relation.
func equalPartitionings(t *testing.T, want, got *Partitioning, label string) {
	t.Helper()
	if len(want.Groups) != len(got.Groups) {
		t.Fatalf("%s: %d groups, want %d", label, len(got.Groups), len(want.Groups))
	}
	for gid := range want.Groups {
		a, b := want.Groups[gid], got.Groups[gid]
		if a.ID != b.ID {
			t.Fatalf("%s: group %d: ID %d vs %d", label, gid, b.ID, a.ID)
		}
		if len(a.Rows) != len(b.Rows) {
			t.Fatalf("%s: group %d: %d rows, want %d", label, gid, len(b.Rows), len(a.Rows))
		}
		for k := range a.Rows {
			if a.Rows[k] != b.Rows[k] {
				t.Fatalf("%s: group %d row %d: %d vs %d", label, gid, k, b.Rows[k], a.Rows[k])
			}
		}
		for d := range a.Centroid {
			if a.Centroid[d] != b.Centroid[d] { // exact bit equality, not approximate
				t.Fatalf("%s: group %d centroid[%d]: %v vs %v", label, gid, d, b.Centroid[d], a.Centroid[d])
			}
		}
		if a.Radius != b.Radius {
			t.Fatalf("%s: group %d radius: %v vs %v", label, gid, b.Radius, a.Radius)
		}
	}
	for r := range want.GID {
		if want.GID[r] != got.GID[r] {
			t.Fatalf("%s: row %d gid %d vs %d", label, r, got.GID[r], want.GID[r])
		}
	}
	wr, gr := want.Representatives(), got.Representatives()
	if wr.Len() != gr.Len() {
		t.Fatalf("%s: reps %d vs %d rows", label, gr.Len(), wr.Len())
	}
	for i := 0; i < wr.Len(); i++ {
		for c := 0; c < wr.Schema().Len(); c++ {
			if wr.Float(i, c) != gr.Float(i, c) {
				t.Fatalf("%s: reps[%d][%d]: %v vs %v", label, i, c,
					gr.Float(i, c), wr.Float(i, c))
			}
		}
	}
}

// TestBuildWorkersDifferential is the partitioning half of the issue's
// differential suite: for seeded Galaxy and TPC-H relations, the
// parallel build must reproduce the sequential build exactly — group
// IDs, member order, centroids, radii, and representatives — for every
// worker count.
func TestBuildWorkersDifferential(t *testing.T) {
	rels := []*relation.Relation{
		workload.Galaxy(3000, 42),
		workload.TPCH(3000, 42),
	}
	attrs := [][]string{
		{"ra", "dec", "redshift"},
		{"quantity", "extendedprice", "discount"},
	}
	for ri, rel := range rels {
		opt := Options{Attrs: attrs[ri], SizeThreshold: rel.Len()/12 + 1}
		opt.Workers = 1
		seq, err := Build(rel, opt)
		if err != nil {
			t.Fatal(err)
		}
		if err := seq.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{1, 4, runtime.GOMAXPROCS(0)} {
			opt.Workers = workers
			par, err := Build(rel, opt)
			if err != nil {
				t.Fatal(err)
			}
			if err := par.CheckInvariants(); err != nil {
				t.Fatalf("workers=%d: %v", workers, err)
			}
			equalPartitionings(t, seq, par, rel.Name())
		}
	}
}

// TestBuildRunToRunDeterminism guards against hidden nondeterminism in
// the sequential path itself (the seed implementation ordered quadrants
// by Go map iteration, so two runs could disagree on group IDs).
func TestBuildRunToRunDeterminism(t *testing.T) {
	rel := workload.Galaxy(2000, 7)
	opt := Options{Attrs: []string{"ra", "dec"}, SizeThreshold: 150, Workers: 1}
	first, err := Build(rel, opt)
	if err != nil {
		t.Fatal(err)
	}
	for run := 0; run < 3; run++ {
		again, err := Build(rel, opt)
		if err != nil {
			t.Fatal(err)
		}
		equalPartitionings(t, first, again, "rerun")
	}
}

// TestConcurrentBuildsShareNothing races independent parallel builds of
// the same relation — the builds must not interfere (caught by -race if
// any shared state sneaks into the tree builder).
func TestConcurrentBuildsShareNothing(t *testing.T) {
	rel := workload.Galaxy(1200, 3)
	opt := Options{Attrs: []string{"ra", "dec", "redshift"}, SizeThreshold: 100}
	want, err := Build(rel, opt)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan *Partitioning, 4)
	for i := 0; i < 4; i++ {
		go func() {
			p, err := Build(rel, opt)
			if err != nil {
				t.Error(err)
				done <- nil
				return
			}
			done <- p
		}()
	}
	for i := 0; i < 4; i++ {
		if p := <-done; p != nil {
			equalPartitionings(t, want, p, "concurrent")
		}
	}
}

// BenchmarkPartitionBuild measures the offline partitioning at several
// worker counts. The galaxy200k rows are the sketchrefine workload's
// shape: 200 000 Galaxy rows on the ten workload attributes with τ = 10 %,
// a root split into about a thousand leaves, so nearly all of the build is
// the root's column passes and its one split. On a 2-core x86-64 host,
// 3 alternating runs of 20 builds a side, it took 26–28 ms on 1 worker and
// 18–21 ms on 2, against 40–43 ms and 31–33 ms with a gather per leaf and
// the root split on one goroutine: a second worker saves about a third,
// not half, as the merge of the runs' quadrants and the gid map stay on
// one goroutine (the builds then also made R̃, which a head no longer
// stores). galaxy200k/maintainer times NewMaintainer over the
// built head, and galaxy200k/recover FromGroups over its groups and then
// NewMaintainer, as a recovery does: with the head's statistic adopted as
// it is, about 0.04 ms, and 10–11 ms on 1 worker and 8 ms on 2, against
// 20–24 ms and 30–36 ms when NewMaintainer added every group up again
// (three sets of 10–12 alternating runs of 20 a side). galaxy200k/nearest
// times the Maintainer's routing of one table row to its group, and
// galaxy200k/view a View over a snapshot of the table: the group structs
// copied and R̃ built from the statistics, 1 009 groups × 11 numeric
// columns, 0.04–0.06 ms and 167 KB in 27 allocations, against 0.012–0.016
// ms and 67 KB in 17 when the head kept an R̃ and a view took a snapshot
// of it.
func BenchmarkPartitionBuild(b *testing.B) {
	run := func(name string, rel *relation.Relation, attrs []string, workers ...int) {
		for _, w := range workers {
			b.Run(fmt.Sprintf("%sworkers=%d", name, w), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					_, err := Build(rel, Options{
						Attrs:         attrs,
						SizeThreshold: rel.Len()/10 + 1,
						Workers:       w,
					})
					if err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
	run("", workload.Galaxy(40000, 17), []string{"ra", "dec", "redshift", "petrorad"}, 1, 2, 4, runtime.GOMAXPROCS(0))
	galaxy := workload.Galaxy(200_000, 17)
	queries, err := workload.GalaxyQueries(galaxy)
	if err != nil {
		b.Fatal(err)
	}
	attrs := workload.WorkloadAttrs(queries)
	run("galaxy200k/", galaxy, attrs, 1, 2)
	for _, w := range []int{1, 2} {
		p, err := Build(galaxy, Options{Attrs: attrs, SizeThreshold: galaxy.Len()/10 + 1, Workers: w})
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("galaxy200k/maintainer/workers=%d", w), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				NewMaintainer(p, MaintOptions{})
			}
		})
		groups := slices.Clone(p.Groups)
		b.Run(fmt.Sprintf("galaxy200k/recover/workers=%d", w), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				q, err := FromGroups(galaxy, p.Attrs, p.Tau, p.Omega, w, groups)
				if err != nil {
					b.Fatal(err)
				}
				NewMaintainer(q, MaintOptions{})
			}
		})
		if w > 1 {
			continue
		}
		// One routing call per op, to a table row's point (an insert's).
		m := NewMaintainer(p, MaintOptions{})
		points := make([][]float64, 4096)
		for i := range points {
			points[i] = make([]float64, len(p.AttrIdx))
			for a, col := range p.AttrIdx {
				points[i][a] = galaxy.Float(i*47, col)
			}
		}
		b.Run("galaxy200k/nearest", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				m.nearest(points[i%len(points)], -1)
			}
		})
		// A view over a snapshot: the group structs and R̃, built from the
		// statistics.
		snap := galaxy.Snapshot()
		b.Run("galaxy200k/view", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				p.View(snap)
			}
		})
	}
}
