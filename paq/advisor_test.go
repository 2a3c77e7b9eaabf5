package paq_test

import (
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
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

// TestCacheKeyMethodFlips pins the plan-cache-key contract under the
// adaptive planner: at a fixed dataset version, every method gets its
// own key (the advisor may flip methods between otherwise identical
// statements, and a flipped statement must never hit another method's
// cached solution), while re-planning the same method reproduces the
// same key.
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

// stubSolver is an injected strategy with a fixed latency; it always
// returns the first eligible row, so both methods agree on the
// objective and the advisor's gap gate stays neutral.
type stubSolver struct{ delay time.Duration }

func (s stubSolver) Solve(ctx context.Context, spec *core.Spec) (*core.Package, *core.EvalStats, error) {
	time.Sleep(s.delay)
	rows := spec.BaseRows()
	return &core.Package{Rel: spec.Rel, Rows: rows[:1], Mult: []int{1}}, &core.EvalStats{}, nil
}

// TestAdvisorLearnsFasterMethod drives the full bandit loop: the fixed
// heuristic nominates sketchrefine (the input exceeds the single-ILP
// threshold), but the injected solvers make direct much faster — so
// after the cold phase (3 fallback runs) and the probe phase (3 runs of
// the alternative), the advisor flips the plan to direct.
func TestAdvisorLearnsFasterMethod(t *testing.T) {
	rel := workload.Galaxy(2500, 7)
	sess, err := paq.Open(paq.Table(rel))
	if err != nil {
		t.Fatal(err)
	}
	sess.SetSolver(paq.MethodDirect, stubSolver{delay: time.Millisecond})
	sess.SetSolver(paq.MethodSketchRefine, stubSolver{delay: 25 * time.Millisecond})
	q := `SELECT PACKAGE(G) AS P FROM galaxy G REPEAT 0
SUCH THAT COUNT(P.*) = 2 MAXIMIZE SUM(P.r)`

	run := func() *paq.Plan {
		t.Helper()
		stmt, err := sess.Prepare(q)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := stmt.Execute(context.Background()); err != nil {
			t.Fatal(err)
		}
		return stmt.Plan()
	}
	for i := 0; i < 3; i++ {
		p := run()
		if a := p.Adaptive; a == nil || !a.Cold || p.Method != paq.MethodSketchRefine {
			t.Fatalf("run %d: want cold sketchrefine (the heuristic), got method=%s adaptive=%+v", i, p.Method, p.Adaptive)
		}
	}
	for i := 0; i < 3; i++ {
		p := run()
		if a := p.Adaptive; a == nil || !a.Probe || p.Method != paq.MethodDirect {
			t.Fatalf("probe run %d: want direct probe, got method=%s adaptive=%+v", i, p.Method, p.Adaptive)
		}
	}
	stmt, err := sess.Prepare(q)
	if err != nil {
		t.Fatal(err)
	}
	p := stmt.Plan()
	if p.Method != paq.MethodDirect {
		t.Fatalf("after warm-up the advisor still plans %s, want direct", p.Method)
	}
	a := p.Adaptive
	if a == nil || a.Cold || a.Probe {
		t.Fatalf("exploit decision marked cold/probe: %+v", a)
	}
	if !strings.Contains(p.Reason, "adaptive: observed") || !strings.Contains(a.Reason, "beats fallback") {
		t.Errorf("exploit reason %q / %q does not explain the flip", p.Reason, a.Reason)
	}
	if a.Fallback != paq.MethodSketchRefine {
		t.Errorf("fallback recorded as %s, want sketchrefine", a.Fallback)
	}
	if len(a.Scores) != 2 {
		t.Errorf("adaptive block carries %d scores, want evidence for both candidates", len(a.Scores))
	}
	st := sess.AdvisorStats()
	if !st.Enabled || st.Outcomes < 6 || st.ColdDecisions < 3 || st.Probes < 3 {
		t.Errorf("advisor stats %+v do not reflect the warm-up", st)
	}
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
	if st := sess.AdvisorStats(); st.PartBuilds != 2 {
		t.Errorf("part builds = %d, want the superset's and the statement's own", st.PartBuilds)
	}
}

// TestAdvisorStatePersists: a durable session's advisor evidence and
// warm sets survive Close/Open — Close writes the advisor's sidecar with
// the final snapshot — so the restarted session re-plans hot queries
// without a cold phase and without rebuilding partitionings.
func TestAdvisorStatePersists(t *testing.T) {
	dir := t.TempDir()
	rel := workload.Galaxy(2500, 7)
	q := `SELECT PACKAGE(G) AS P FROM galaxy G REPEAT 0
SUCH THAT COUNT(P.*) = 2 MAXIMIZE SUM(P.r)`

	// WithoutCache: cache hits are not workload evidence (the advisor
	// skips them), and this test needs three real solves.
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
	if got := sess.AdvisorStats().PartBuilds; got != 1 {
		t.Fatalf("first session paid %d builds, want 1", got)
	}
	if err := sess.Close(); err != nil {
		t.Fatal(err)
	}

	re, err := paq.Open(nil, paq.WithDurability(dir), paq.WithoutCache())
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	st := re.AdvisorStats()
	if st.Outcomes < 3 {
		t.Fatalf("restored advisor stats %+v, want the first session's evidence", st)
	}
	if len(re.WarmSets()) == 0 {
		t.Fatal("no warm set survived the restart")
	}
	// Re-planning the hot query needs no cold restart and no rebuild:
	// the partitioning warm-started from the snapshot and the advisor's
	// sample counts carried over (the next decision is the probe phase,
	// not the cold phase).
	stmt, err := re.Prepare(q)
	if err != nil {
		t.Fatal(err)
	}
	if a := stmt.Plan().Adaptive; a == nil || a.Cold {
		t.Errorf("restarted session re-plans cold: %+v", a)
	}
	if _, err := stmt.Execute(context.Background()); err != nil {
		t.Fatal(err)
	}
	if got := re.AdvisorStats().PartBuilds; got != 0 {
		t.Errorf("restarted session paid %d partitioning builds on the hot set, want 0", got)
	}
}

// TestSaveAdvisorStateSkipsUnchangedEvidence: a maintenance tick with no
// new outcome writes no sidecar — 100 saves leave the file as it was,
// neither replaced nor touched — and one new outcome writes it again.
func TestSaveAdvisorStateSkipsUnchangedEvidence(t *testing.T) {
	dir := t.TempDir()
	sess, err := paq.Open(paq.Table(workload.Galaxy(500, 7)), paq.WithDurability(dir), paq.WithoutCache())
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	solve := func() {
		t.Helper()
		stmt, err := sess.Prepare(`SELECT PACKAGE(G) AS P FROM galaxy G REPEAT 0
SUCH THAT COUNT(P.*) = 2 MAXIMIZE SUM(P.r)`)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := stmt.Execute(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
	sidecar := filepath.Join(dir, "advisor.paqadv")
	save := func() os.FileInfo {
		t.Helper()
		if err := sess.SaveAdvisorState(); err != nil {
			t.Fatal(err)
		}
		fi, err := os.Stat(sidecar)
		if err != nil {
			t.Fatal(err)
		}
		return fi
	}
	solve()
	first := save()
	for i := 0; i < 100; i++ {
		if fi := save(); !os.SameFile(first, fi) || !fi.ModTime().Equal(first.ModTime()) {
			t.Fatalf("save %d with no new outcome rewrote the sidecar", i+1)
		}
	}
	solve()
	if os.SameFile(first, save()) {
		t.Fatal("a new outcome left the sidecar unwritten")
	}
	if got := sess.AdvisorStats().Outcomes; got != 2 {
		t.Fatalf("%d outcomes, want 2", got)
	}
}

// TestWithoutAdvisor pins the opt-out: no Adaptive block, no outcome
// tracking — the session behaves exactly like the fixed
// heuristic (the bench harness's A/B twin relies on this).
func TestWithoutAdvisor(t *testing.T) {
	sess, err := paq.Open(paq.Table(mealRelation()), paq.WithoutAdvisor())
	if err != nil {
		t.Fatal(err)
	}
	stmt, err := sess.Prepare(mealQuery)
	if err != nil {
		t.Fatal(err)
	}
	if stmt.Plan().Adaptive != nil {
		t.Error("WithoutAdvisor plan still carries an Adaptive block")
	}
	if _, err := stmt.Execute(context.Background()); err != nil {
		t.Fatal(err)
	}
	st := sess.AdvisorStats()
	if st.Enabled || st.Outcomes != 0 || st.Decisions != 0 || st.Shapes != 0 {
		t.Errorf("disabled advisor accumulated state: %+v", st)
	}
}
