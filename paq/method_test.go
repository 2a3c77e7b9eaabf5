package paq_test

import (
	"context"
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"

	"repro/internal/relation"
	"repro/internal/reltest"
	"repro/internal/workload"
	"repro/paq"
)

// abcRelation builds a small table with three numeric columns, so
// different queries demand different partitioning attribute sets.
func abcRelation(n int) *relation.Relation {
	rel := relation.New("t", reltest.Schema(
		relation.Column{Name: "a", Type: relation.Float},
		relation.Column{Name: "b", Type: relation.Float},
		relation.Column{Name: "c", Type: relation.Float},
	))
	for i := 0; i < n; i++ {
		reltest.Append(rel,
			relation.F(float64(i%17)), relation.F(float64(i%23)), relation.F(float64(i%11)))
	}
	return rel
}

const (
	abcQueryA = `SELECT PACKAGE(T) AS P FROM t T REPEAT 0
SUCH THAT COUNT(P.*) = 2 MAXIMIZE SUM(P.a)`
	abcQueryAB = `SELECT PACKAGE(T) AS P FROM t T REPEAT 0
SUCH THAT COUNT(P.*) = 2 AND SUM(P.a) >= 0 MAXIMIZE SUM(P.b)`
)

// TestCacheKeyMethodFlips pins the plan-cache-key contract across
// methods: at a fixed dataset version, every method gets its own key
// (MethodAuto and WithMethod may resolve otherwise identical statements
// differently, and a statement must never hit another method's cached
// solution), while re-planning the same method reproduces the same key.
func TestCacheKeyMethodFlips(t *testing.T) {
	rel := workload.Galaxy(400, 3)
	sess, err := paq.Open(paq.Table(rel))
	if err != nil {
		t.Fatal(err)
	}
	q := `SELECT PACKAGE(G) AS P FROM galaxy G REPEAT 0
SUCH THAT COUNT(P.*) = 2 MAXIMIZE SUM(P.r)`
	keyOf := func(opts ...paq.Option) string {
		t.Helper()
		stmt, err := sess.Prepare(q, opts...)
		if err != nil {
			t.Fatal(err)
		}
		return stmt.Plan().CacheKey
	}
	keys := map[paq.Method]string{
		paq.MethodDirect:       keyOf(paq.WithMethod(paq.MethodDirect)),
		paq.MethodNaive:        keyOf(paq.WithMethod(paq.MethodNaive)),
		paq.MethodSketchRefine: keyOf(paq.WithMethod(paq.MethodSketchRefine)),
	}
	for m1, k1 := range keys {
		for m2, k2 := range keys {
			if m1 != m2 && k1 == k2 {
				t.Errorf("methods %s and %s share cache key %s", m1, m2, k1)
			}
		}
	}
	// The key depends on the resolved method, not how it was resolved:
	// auto (which picks direct here) matches the fixed-direct key, and
	// re-planning reproduces keys exactly.
	if got := keyOf(); got != keys[paq.MethodDirect] {
		t.Errorf("auto-resolved direct key %s != fixed direct key %s", got, keys[paq.MethodDirect])
	}
	if got := keyOf(paq.WithMethod(paq.MethodSketchRefine)); got != keys[paq.MethodSketchRefine] {
		t.Errorf("sketchrefine key not stable across prepares: %s vs %s", got, keys[paq.MethodSketchRefine])
	}

	// Solution caches never leak across a method flip: executing direct
	// then sketchrefine gives each method its own miss (a stale hit
	// would return the other method's package).
	if _, err := must(sess.Prepare(q, paq.WithMethod(paq.MethodDirect))).Execute(context.Background()); err != nil {
		t.Fatal(err)
	}
	if _, err := must(sess.Prepare(q, paq.WithMethod(paq.MethodSketchRefine))).Execute(context.Background()); err != nil {
		t.Fatal(err)
	}
	cs := sess.CacheStats()
	if cs[paq.MethodDirect].Misses != 1 || cs[paq.MethodDirect].Hits != 0 {
		t.Errorf("direct cache stats %+v, want exactly one miss", cs[paq.MethodDirect])
	}
	if cs[paq.MethodSketchRefine].Misses != 1 || cs[paq.MethodSketchRefine].Hits != 0 {
		t.Errorf("sketchrefine cache stats %+v, want exactly one miss (no cross-method hit)", cs[paq.MethodSketchRefine])
	}
}

func must(stmt *paq.Stmt, err error) *paq.Stmt {
	if err != nil {
		panic(err)
	}
	return stmt
}

// TestStatementRefinesOverItsOwnSet: a statement partitions on its own
// attributes (coverage 1, paper §4.1) even when a warm partitioning over
// a superset of them exists — refining over the superset measurably
// worsens the answer (fig9) — so it pays its own build.
func TestStatementRefinesOverItsOwnSet(t *testing.T) {
	sess, err := paq.Open(paq.Table(abcRelation(60)))
	if err != nil {
		t.Fatal(err)
	}
	// A SketchRefine statement over {a,b} builds the superset.
	ab, err := sess.Prepare(abcQueryAB, paq.WithMethod(paq.MethodSketchRefine))
	if err != nil {
		t.Fatal(err)
	}
	if pi := ab.Plan().Partitioning; pi == nil || strings.Join(pi.Attrs, ",") != "a,b" {
		t.Fatalf("plan partitioning %+v, want [a,b]", pi)
	}
	stmt, err := sess.Prepare(abcQueryA, paq.WithMethod(paq.MethodSketchRefine))
	if err != nil {
		t.Fatal(err)
	}
	if pi := stmt.Plan().Partitioning; pi == nil || strings.Join(pi.Attrs, ",") != "a" {
		t.Fatalf("plan partitioning %+v, want the statement's own [a]", pi)
	}
	if _, err := stmt.Execute(context.Background()); err != nil {
		t.Fatal(err)
	}
	if got := sess.PartBuilds(); got != 2 {
		t.Errorf("part builds = %d, want the superset's and the statement's own", got)
	}
}

// TestWarmSetsSurviveRestart: a durable session's warm sets survive
// Close/Open, so the restarted session re-plans and runs a hot query
// without rebuilding its partitioning.
func TestWarmSetsSurviveRestart(t *testing.T) {
	dir := t.TempDir()
	rel := workload.Galaxy(2500, 7)
	q := `SELECT PACKAGE(G) AS P FROM galaxy G REPEAT 0
SUCH THAT COUNT(P.*) = 2 MAXIMIZE SUM(P.r)`

	sess, err := paq.Open(paq.Table(rel), paq.WithDurability(dir), paq.WithoutCache())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		stmt, err := sess.Prepare(q)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := stmt.Execute(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
	if got := sess.PartBuilds(); got != 1 {
		t.Fatalf("first session paid %d builds, want 1", got)
	}
	want := sess.WarmSets()
	if err := sess.Close(); err != nil {
		t.Fatal(err)
	}

	re, err := paq.Open(nil, paq.WithDurability(dir), paq.WithoutCache())
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if got := re.WarmSets(); len(got) == 0 || !reflect.DeepEqual(got, want) {
		t.Fatalf("warm sets after the restart = %+v, want %+v", got, want)
	}
	stmt, err := re.Prepare(q)
	if err != nil {
		t.Fatal(err)
	}
	if m := stmt.Plan().Method; m != paq.MethodSketchRefine {
		t.Errorf("restarted session plans %s, want sketchrefine", m)
	}
	if _, err := stmt.Execute(context.Background()); err != nil {
		t.Fatal(err)
	}
	if got := re.PartBuilds(); got != 0 {
		t.Errorf("restarted session paid %d partitioning builds on the hot set, want 0", got)
	}
}

// TestAutoSizeRule pins how MethodAuto resolves: DIRECT while the
// eligible tuples (rows passing WHERE) fit a single ILP, SketchRefine
// over the warm partitioning beyond that — and nothing but the size
// decides, so re-planning one statement never changes its method.
func TestAutoSizeRule(t *testing.T) {
	const q = `SELECT PACKAGE(G) AS P FROM galaxy G REPEAT 0 %s
SUCH THAT COUNT(P.*) = 2 MAXIMIZE SUM(P.r)`
	open := func(n int) *paq.Session {
		t.Helper()
		sess, err := paq.Open(paq.Table(workload.Galaxy(n, 7)),
			paq.WithPartitionAttrs(), paq.WithWarmPartitioning(), paq.WithoutCache())
		if err != nil {
			t.Fatal(err)
		}
		return sess
	}
	plan := func(sess *paq.Session, where string) *paq.Plan {
		t.Helper()
		stmt, err := sess.Prepare(fmt.Sprintf(q, where))
		if err != nil {
			t.Fatal(err)
		}
		return stmt.Plan()
	}

	p := plan(open(2000), "")
	if p.Method != paq.MethodDirect || p.Partitioning != nil {
		t.Errorf("2000 tuples: method %s, partitioning %+v; want direct without one", p.Method, p.Partitioning)
	}
	if want := "auto: 2000 eligible tuples fit a single ILP (threshold 2000)"; p.Reason != want {
		t.Errorf("2000 tuples: reason %q, want %q", p.Reason, want)
	}

	sess := open(2001)
	warm := sess.WarmSets()
	if len(warm) != 1 {
		t.Fatalf("warm sets %+v, want the one built at Open", warm)
	}
	p = plan(sess, "")
	if p.Method != paq.MethodSketchRefine || p.Partitioning == nil ||
		!reflect.DeepEqual(p.Partitioning.Attrs, warm[0].Attrs) || p.Partitioning.Groups != warm[0].Groups {
		t.Fatalf("2001 tuples: method %s, partitioning %+v; want sketchrefine over %+v", p.Method, p.Partitioning, warm[0])
	}
	want := fmt.Sprintf("auto: 2001 eligible tuples exceed the single-ILP threshold (2000); refining over %d groups (τ=%d)",
		p.Partitioning.Groups, p.Partitioning.Tau)
	if p.Reason != want {
		t.Errorf("2001 tuples: reason %q, want %q", p.Reason, want)
	}
	if got := sess.PartBuilds(); got != 1 {
		t.Errorf("%d partitioning builds, want only Open's", got)
	}

	// A WHERE that drops at least one of the 2001 rows brings the
	// statement back under the threshold.
	rel := sess.Rel()
	col := rel.Schema().Lookup("r")
	cut := rel.Float(0, col)
	for row := 1; row < rel.Len(); row++ {
		cut = math.Max(cut, rel.Float(row, col))
	}
	eligible := 0
	for row := 0; row < rel.Len(); row++ {
		if rel.Float(row, col) < cut {
			eligible++
		}
	}
	p = plan(sess, fmt.Sprintf("WHERE G.r < %v", cut))
	if eligible > 2000 || p.Variables != eligible || p.Method != paq.MethodDirect {
		t.Errorf("WHERE keeps %d of 2001 rows: plan has %d variables, method %s; want direct", eligible, p.Variables, p.Method)
	}
	if want := fmt.Sprintf("auto: %d eligible tuples fit a single ILP (threshold 2000)", eligible); p.Reason != want {
		t.Errorf("filtered: reason %q, want %q", p.Reason, want)
	}

	// Real solves (no cache) feed nothing back into planning.
	stmt, err := sess.Prepare(fmt.Sprintf(q, ""))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if _, err := stmt.Execute(context.Background()); err != nil {
			t.Fatal(err)
		}
		if m := plan(sess, "").Method; m != paq.MethodSketchRefine {
			t.Fatalf("execution %d: re-planned as %s, want sketchrefine", i+1, m)
		}
	}
	if m := stmt.Plan().Method; m != paq.MethodSketchRefine {
		t.Errorf("statement's plan moved to %s", m)
	}
}

// TestWithMethodSpellings: WithMethod takes a method as ParseMethod reads
// it, so every spelling of a name plans that method, at Open and at
// Prepare alike (3 000 rows, where auto would pick SketchRefine).
func TestWithMethodSpellings(t *testing.T) {
	const q = `SELECT PACKAGE(G) AS P FROM galaxy G REPEAT 0
SUCH THAT COUNT(P.*) = 2 MAXIMIZE SUM(P.r)`
	rel := workload.Galaxy(3000, 7)
	cases := []struct {
		spelling paq.Method
		want     paq.Method
	}{
		{"DIRECT", paq.MethodDirect},
		{" direct", paq.MethodDirect},
		{"Naive", paq.MethodNaive},
		{"naive\t", paq.MethodNaive},
		{"SketchRefine", paq.MethodSketchRefine},
		{" AUTO ", paq.MethodSketchRefine},
	}
	for _, tc := range cases {
		sess, err := paq.Open(paq.Table(rel), paq.WithMethod(tc.spelling), paq.WithoutCache())
		if err != nil {
			t.Fatal(err)
		}
		atOpen := must(sess.Prepare(q)).Plan()
		other, err := paq.Open(paq.Table(rel), paq.WithoutCache())
		if err != nil {
			t.Fatal(err)
		}
		atPrepare := must(other.Prepare(q, paq.WithMethod(tc.spelling))).Plan()
		for where, p := range map[string]*paq.Plan{"Open": atOpen, "Prepare": atPrepare} {
			auto := strings.HasPrefix(p.Reason, "auto:")
			if p.Method != tc.want || auto != (strings.TrimSpace(string(tc.spelling)) == "AUTO") {
				t.Errorf("WithMethod(%q) at %s: planned %s (%q), want %s", tc.spelling, where, p.Method, p.Reason, tc.want)
			}
		}
	}
	if _, err := paq.Open(paq.Table(rel), paq.WithMethod("simplex")); err == nil {
		t.Error("WithMethod(\"simplex\") opened a session")
	}
}

// TestWithoutAdvisor: the option survives as a no-op — a session opened
// with it plans exactly like one opened without it, on both sides of
// the size rule.
func TestWithoutAdvisor(t *testing.T) {
	for _, rel := range []*relation.Relation{mealRelation(), workload.Galaxy(2001, 7)} {
		query := mealQuery
		if rel.Name() == "galaxy" {
			query = `SELECT PACKAGE(G) AS P FROM galaxy G REPEAT 0
SUCH THAT COUNT(P.*) = 2 MAXIMIZE SUM(P.r)`
		}
		var plans [2]*paq.Plan
		for i, opts := range [][]paq.Option{nil, {paq.WithoutAdvisor()}} {
			sess, err := paq.Open(paq.Table(rel), opts...)
			if err != nil {
				t.Fatal(err)
			}
			stmt, err := sess.Prepare(query)
			if err != nil {
				t.Fatal(err)
			}
			plans[i] = stmt.Plan()
			if plans[i].Partitioning != nil {
				plans[i].Partitioning.BuildMS = 0 // wall clock
			}
		}
		if !reflect.DeepEqual(plans[0], plans[1]) {
			t.Errorf("%s: WithoutAdvisor changed the plan:\n%s\nvs\n%s", rel.Name(), plans[1], plans[0])
		}
	}
}
