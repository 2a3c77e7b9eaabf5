package paq

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/partition"
	"repro/internal/relation"
)

// wideQuery has no filter, and its attribute set (w included) is not
// memoQuery's, so the two statements pin views of two heads.
const wideQuery = `
SELECT PACKAGE(I) AS P FROM items I REPEAT 0
SUCH THAT COUNT(P.*) = 3 AND SUM(P.cost) <= 12 AND SUM(P.w) <= 6
MAXIMIZE SUM(P.gain)`

// TestGenerationFollowsVersions holds the dataset's generation to the
// version after every batch of a seeded insert, delete, update and
// Compact stream, while two Clones prepare and execute memoQuery and
// wideQuery on 2 workers: the generation is at Session.Version(), both
// Clones pin its one snapshot, every view it holds is bound to that
// snapshot, and every base count it holds is the number of live rows a
// plain row-by-row loop finds passing the filter. Once the next version
// is pinned and no solve runs, the superseded generation's snapshot and
// views are garbage.
func TestGenerationFollowsVersions(t *testing.T) {
	s, _ := memoFixture(t, 300, WithTauTuples(30), WithWorkers(2))
	queries := []string{memoQuery, wideQuery}
	clones := make([]*Session, len(queries))
	stmts := make([]*Stmt, len(queries))
	// filters evaluate each statement's filter on one row of rel:
	// memoQuery's WHERE plus its MAX restriction, and none. passes keys
	// them by the statement's filter key.
	cost, gain := s.d.rel.Schema().Lookup("cost"), s.d.rel.Schema().Lookup("gain")
	filters := []func(rel *relation.Relation, row int) bool{
		func(rel *relation.Relation, row int) bool {
			return rel.Float(row, cost) <= 5 && rel.Float(row, gain) <= 9
		},
		func(*relation.Relation, int) bool { return true },
	}
	passes := map[string]func(rel *relation.Relation, row int) bool{}
	for i, q := range queries {
		var err error
		if clones[i], err = s.Clone(); err != nil {
			t.Fatal(err)
		}
		if stmts[i], err = clones[i].Prepare(q); err != nil {
			t.Fatal(err)
		}
		key, _ := engine.FilterKey(stmts[i].spec)
		passes[key] = filters[i]
	}
	if len(passes) != len(queries) {
		t.Fatalf("the two statements share a filter key")
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for i, c := range clones {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				st, err := c.Prepare(queries[i])
				if err == nil {
					_, err = st.Execute(context.Background())
				}
				if err != nil && !errors.Is(err, ErrInfeasible) {
					t.Error(err)
					return
				}
			}
		}()
	}
	halt := sync.OnceFunc(func() { close(stop); wg.Wait() })
	defer halt()

	check := func(step string) {
		t.Helper()
		v := s.Version()
		g := s.d.cur.Load()
		if g.version != v {
			t.Fatalf("%s: the generation is at version %d, the session at %d", step, g.version, v)
		}
		var snap *relation.Relation
		for i, c := range clones {
			if _, err := c.Prepare(queries[i]); err != nil {
				t.Fatal(err)
			}
			p := c.pinExec(stmts[i], nil)
			if snap == nil {
				snap = p.snap
			}
			if p.snap != snap || p.snap.Version() != v {
				t.Fatalf("%s: clone %d pinned %p at version %d, clone 0 %p, the session is at %d", step, i, p.snap, p.snap.Version(), snap, v)
			}
		}
		g.fillMu.Lock()
		defer g.fillMu.Unlock()
		if len(g.views) != len(stmts) || len(g.counts) != len(passes) {
			t.Fatalf("%s: the generation holds %d views and %d counts, want %d and %d", step, len(g.views), len(g.counts), len(stmts), len(passes))
		}
		for head, view := range g.views {
			if view.Rel != snap {
				t.Fatalf("%s: the view of head %p is bound to %p, not the pinned snapshot %p", step, head, view.Rel, snap)
			}
		}
		for key, n := range g.counts {
			pass := passes[key]
			if pass == nil {
				t.Fatalf("%s: the generation counted an unknown filter %q", step, key)
			}
			want := 0
			for row := 0; row < snap.Len(); row++ {
				if !snap.Deleted(row) && pass(snap, row) {
					want++
				}
			}
			if n != want {
				t.Fatalf("%s: filter %q counted %d rows, the row loop finds %d", step, key, n, want)
			}
		}
	}

	rng := rand.New(rand.NewSource(68))
	vals := func(n int) [][]relation.Value {
		out := make([][]relation.Value, n)
		for i := range out {
			out[i] = []relation.Value{relation.F(float64(1 + rng.Intn(9))), relation.F(float64(1 + rng.Intn(13))), relation.F(float64(rng.Intn(5)))}
		}
		return out
	}
	check("open")
	compactions := 0
	for batch := 0; batch < 40; batch++ {
		var live []int
		s.View(func(rel *relation.Relation) { live = slices.Clone(rel.AllRows()) })
		rng.Shuffle(len(live), func(i, j int) { live[i], live[j] = live[j], live[i] })
		var err error
		switch k := rng.Intn(4); {
		case k == 0 || len(live) < 100:
			_, _, err = s.InsertRows(vals(1 + rng.Intn(20)))
		case k == 1:
			_, err = s.DeleteRows(live[:1+rng.Intn(15)])
		case k == 2:
			n := 1 + rng.Intn(15)
			_, err = s.UpdateRows(live[:n], vals(n))
		default:
			var n int
			if n, err = s.Compact(); n > 0 {
				compactions++
			}
		}
		if err != nil {
			t.Fatalf("batch %d: %v", batch, err)
		}
		check(fmt.Sprintf("batch %d", batch))
	}
	if compactions == 0 {
		t.Fatal("the stream reclaimed nothing: no Compact moved the version")
	}
	halt()

	collected := make(chan string, len(stmts)+1)
	g := s.d.cur.Load()
	runtime.SetFinalizer(g.snap, func(*relation.Relation) { collected <- "snapshot" })
	for _, view := range g.views {
		runtime.SetFinalizer(view, func(*partition.Partitioning) { collected <- "view" })
	}
	g = nil
	if _, _, err := s.InsertRows(vals(1)); err != nil {
		t.Fatal(err)
	}
	for i, c := range clones {
		c.pinExec(stmts[i], nil)
	}
	for got := 0; got < len(stmts)+1; {
		runtime.GC()
		select {
		case <-collected:
			got++
		case <-time.After(2 * time.Second):
			t.Fatalf("the superseded generation's snapshot or views are still reachable (%d of %d finalizers ran)", got, len(stmts)+1)
		}
	}
}
