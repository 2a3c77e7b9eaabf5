package paq

import (
	"fmt"
	"math"
	"strconv"
	"sync"
	"testing"

	"repro/internal/relation"
	"repro/internal/reltest"
)

// countQuery is a filtered query over countTable; %s is its WHERE clause.
// MAX(P.gain) <= 9 adds a restriction to every filter.
const countQuery = `SELECT PACKAGE(I) AS P FROM items I REPEAT 0 WHERE %s
SUCH THAT COUNT(P.*) = 3 AND MAX(P.gain) <= 9 MAXIMIZE SUM(P.gain)`

// oddTag is a string constant that, with its quotes left single, would
// render as two comparisons.
const oddTag = "x') AND (tag = 'y"

// countTable has 2 100 rows with cost i/10, so "cost <= c" crosses
// MethodAuto's 2 000-tuple threshold near c = 200. Every gain passes the
// restriction until an update raises one.
func countTable() *relation.Relation {
	rel := relation.New("items", reltest.Schema(
		relation.Column{Name: "cost", Type: relation.Float},
		relation.Column{Name: "gain", Type: relation.Float},
		relation.Column{Name: "tag", Type: relation.String},
	))
	for i := 0; i < 2100; i++ {
		tag := []string{"x", "y", oddTag}[i%3]
		reltest.Append(rel, relation.F(float64(i)/10), relation.F(float64(i%10)), relation.S(tag))
	}
	return rel
}

// countWheres are filters whose counts sit on both sides of the
// threshold, an expression filter, two constants one bit apart, and two
// string filters that rendered alike before quotes were doubled.
var countWheres = []string{
	"I.cost <= 230",
	"I.cost <= 200",
	"I.cost < 100",
	"I.cost < " + strconv.FormatFloat(math.Nextafter(100, math.Inf(1)), 'g', -1, 64),
	"I.gain + I.cost > 150",
	"I.tag = 'x'') AND (tag = ''y' AND I.cost <= 50",
	"I.tag = 'x' AND I.tag = 'y' AND I.cost <= 50",
}

// checkCount prepares where on s and holds the plan to a fresh scan at the
// plan's version: the variables are the count, and MethodAuto's choice is
// the size rule's for it. It returns where the count came from, or "" when
// a mutation moved the version before the scan could run.
func checkCount(t *testing.T, s *Session, where string) string {
	t.Helper()
	st, err := s.Prepare(fmt.Sprintf(countQuery, where))
	if err != nil {
		t.Error(err)
		return ""
	}
	s.d.dataMu.RLock()
	defer s.d.dataMu.RUnlock()
	if s.d.rel.Version() != st.plan.DatasetVersion {
		return ""
	}
	fresh := st.spec.CountBase()
	want := MethodSketchRefine
	if fresh <= autoDirectMaxVars {
		want = MethodDirect
	}
	if st.plan.Variables != fresh || st.method != want {
		t.Errorf("%s at v%d (%s): %d variables by %s, want %d by %s",
			where, st.plan.DatasetVersion, st.baseCount, st.plan.Variables, st.method, fresh, want)
	}
	return st.baseCount
}

// checkAll prepares every filter twice: the first count at a version is a
// scan, the second the memo's.
func checkAll(t *testing.T, s *Session, step string) {
	t.Helper()
	for _, w := range countWheres {
		if from := checkCount(t, s, w); from != "scan" {
			t.Errorf("%s: first prepare of %s counted by %q, want scan", step, w, from)
		}
		if from := checkCount(t, s, w); from != "memo" {
			t.Errorf("%s: second prepare of %s counted by %q, want memo", step, w, from)
		}
	}
}

// TestBaseCountMemoMatchesScan holds Prepare's base-count memo to a scan
// of the head at every step that can change a count or the dataset it is
// kept on.
func TestBaseCountMemoMatchesScan(t *testing.T) {
	opts := []Option{WithTauTuples(200), WithoutCache()}
	s, err := Open(Table(countTable()), opts...)
	if err != nil {
		t.Fatal(err)
	}
	pinned, pins := s.d.cur.Load().snap, s.d.pin.pins.Load()
	checkAll(t, s, "open")
	if s.d.cur.Load().snap != pinned || s.d.pin.pins.Load() != pins {
		t.Error("Prepare pinned a snapshot")
	}

	t.Run("quotes", func(t *testing.T) {
		a, _ := s.Prepare(fmt.Sprintf(countQuery, countWheres[5]))
		b, _ := s.Prepare(fmt.Sprintf(countQuery, countWheres[6]))
		if a.plan.Variables == b.plan.Variables || a.plan.CacheKey == b.plan.CacheKey {
			t.Errorf("%q and %q share %d variables or cache key %s", countWheres[5], countWheres[6], a.plan.Variables, a.plan.CacheKey)
		}
	})

	t.Run("mutations", func(t *testing.T) {
		if _, _, err := s.InsertRows([][]relation.Value{{relation.F(5), relation.F(1), relation.S("x")}}); err != nil {
			t.Fatal(err)
		}
		checkAll(t, s, "insert")
		// Dropping rows under cost 20 takes "cost <= 200" below the threshold.
		rows := make([]int, 0, 200)
		for i := 0; i < 200; i++ {
			rows = append(rows, i)
		}
		if _, err := s.DeleteRows(rows); err != nil {
			t.Fatal(err)
		}
		checkAll(t, s, "delete")
		if _, err := s.UpdateRows([]int{1000, 1001}, [][]relation.Value{
			{relation.F(math.Nextafter(100, math.Inf(1))), relation.F(1), relation.S("y")},
			{relation.F(1), relation.F(20), relation.S(oddTag)},
		}); err != nil {
			t.Fatal(err)
		}
		checkAll(t, s, "update")
		if n, err := s.Compact(); err != nil || n == 0 {
			t.Fatalf("compact reclaimed %d: %v", n, err)
		}
		checkAll(t, s, "compact")
	})

	t.Run("clone", func(t *testing.T) {
		c, err := s.Clone()
		if err != nil {
			t.Fatal(err)
		}
		for _, w := range countWheres {
			if from := checkCount(t, c, w); from != "memo" {
				t.Errorf("clone's prepare of %s counted by %q, want the parent's memo", w, from)
			}
		}
		if _, err := c.DeleteRows([]int{5}); err != nil {
			t.Fatal(err)
		}
		checkAll(t, s, "clone's delete")
	})

	t.Run("anonymous", func(t *testing.T) {
		st, err := s.Prepare(fmt.Sprintf(countQuery, countWheres[0]))
		if err != nil {
			t.Fatal(err)
		}
		cheap := &relation.FuncPred{Fn: func(r *relation.Relation) func(int) bool {
			return func(row int) bool { return row%2 == 0 }
		}}
		for _, base := range []relation.Predicate{cheap, &relation.And{Kids: []relation.Predicate{st.spec.Base, cheap}}} {
			spec := *st.spec
			spec.Base = base
			before := len(s.d.cur.Load().counts)
			s.d.dataMu.RLock()
			for range 2 {
				if n, from := s.d.baseCount(&spec); n != spec.CountBase() || from != "scan" {
					t.Errorf("%s: %d by %s, want %d by scan", base, n, from, spec.CountBase())
				}
			}
			s.d.dataMu.RUnlock()
			if len(s.d.cur.Load().counts) != before {
				t.Errorf("%s: the memo kept an anonymous filter", base)
			}
		}
	})

	t.Run("cap", func(t *testing.T) {
		for k := 0; k < maxBaseCounts+50; k++ {
			checkCount(t, s, fmt.Sprintf("I.cost <= %d / 7", k))
		}
		if n := len(s.d.cur.Load().counts); n != maxBaseCounts {
			t.Errorf("the memo holds %d filters, want the cap %d", n, maxBaseCounts)
		}
		for _, w := range countWheres {
			checkCount(t, s, w)
		}
	})

	t.Run("concurrent", func(t *testing.T) {
		var wg sync.WaitGroup
		for g := range 4 {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := range 40 {
					checkCount(t, s, countWheres[(g+i)%len(countWheres)])
				}
			}()
		}
		for i := range 10 {
			if _, err := s.UpdateRows([]int{300 + i}, [][]relation.Value{{relation.F(float64(i)), relation.F(2), relation.S("x")}}); err != nil {
				t.Error(err)
			}
		}
		wg.Wait()
	})

	t.Run("reopen", func(t *testing.T) {
		dir := t.TempDir()
		d, err := Open(Table(countTable()), append(opts, WithDurability(dir))...)
		if err != nil {
			t.Fatal(err)
		}
		checkAll(t, d, "durable open")
		if _, err := d.DeleteRows([]int{0, 1, 2, 3}); err != nil {
			t.Fatal(err)
		}
		checkAll(t, d, "durable delete")
		if err := d.Close(); err != nil {
			t.Fatal(err)
		}
		r, err := Open(nil, append(opts, WithDurability(dir))...)
		if err != nil {
			t.Fatal(err)
		}
		defer r.Close()
		checkAll(t, r, "reopen")
	})
}
