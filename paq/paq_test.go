package paq_test

import (
	"context"
	"errors"
	"math"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/relation"
	"repro/internal/reltest"
	"repro/internal/workload"
	"repro/paq"
)

// mealRelation builds the paper's Example 1 table (the quickstart data).
func mealRelation() *relation.Relation {
	recipes := relation.New("Recipes", reltest.Schema(
		relation.Column{Name: "name", Type: relation.String},
		relation.Column{Name: "gluten", Type: relation.String},
		relation.Column{Name: "kcal", Type: relation.Float},
		relation.Column{Name: "saturated_fat", Type: relation.Float},
	))
	for _, m := range []struct {
		name, gluten string
		kcal, fat    float64
	}{
		{"lentil soup", "free", 0.45, 0.4},
		{"grilled salmon", "free", 0.76, 1.9},
		{"rice bowl", "free", 0.72, 0.3},
		{"pasta carbonara", "full", 0.95, 7.2},
		{"steak frites", "free", 1.05, 8.1},
		{"quinoa salad", "free", 0.50, 0.7},
		{"roast chicken", "free", 0.81, 2.4},
		{"bread pudding", "full", 0.66, 3.9},
		{"tofu stir fry", "free", 0.58, 0.9},
		{"fruit plate", "free", 0.30, 0.1},
	} {
		reltest.Append(recipes, relation.S(m.name), relation.S(m.gluten), relation.F(m.kcal), relation.F(m.fat))
	}
	return recipes
}

const mealQuery = `
SELECT PACKAGE(R) AS P
FROM Recipes R REPEAT 0
WHERE R.gluten = 'free'
SUCH THAT COUNT(P.*) = 3 AND
          SUM(P.kcal) BETWEEN 2.0 AND 2.5
MINIMIZE SUM(P.saturated_fat)`

// TestMealPlannerGolden is the end-to-end golden test over the paper's
// running example: the plan snapshot (chosen method, why, ILP size) and
// the optimal objective are pinned exactly.
func TestMealPlannerGolden(t *testing.T) {
	sess, err := paq.Open(paq.Table(mealRelation()))
	if err != nil {
		t.Fatal(err)
	}
	stmt, err := sess.Prepare(mealQuery)
	if err != nil {
		t.Fatal(err)
	}
	plan := stmt.Plan()
	want := paq.Plan{
		Method:         paq.MethodDirect,
		Reason:         "auto: 8 eligible tuples fit a single ILP (threshold 2000)",
		Relation:       "Recipes",
		Rows:           10,
		Variables:      8, // the gluten-free tuples after WHERE elimination
		Constraints:    3, // COUNT = 3, plus BETWEEN lowered to GE + LE
		Repeat:         0,
		DatasetVersion: 10, // one bump per appended recipe
		Objective:      "MINIMIZE SUM(P.saturated_fat)",
		CacheKey:       "9e30d99222edee85",
	}
	// The advisor is on by default, so the first-ever decision is a cold
	// one: the heuristic's choice and reason verbatim, with the advisor's
	// record attached. Pin its shape, then compare the rest exactly.
	if a := plan.Adaptive; a == nil {
		t.Fatal("plan has no Adaptive block (advisor should be on by default)")
	} else {
		if !a.Cold || a.Probe {
			t.Errorf("first-ever decision cold=%v probe=%v, want cold non-probe", a.Cold, a.Probe)
		}
		if a.Chosen != paq.MethodDirect || a.Fallback != paq.MethodDirect {
			t.Errorf("adaptive chose %s (fallback %s), want direct/direct", a.Chosen, a.Fallback)
		}
	}
	want.Adaptive = plan.Adaptive
	got := *plan
	if got != want {
		t.Errorf("plan snapshot drifted:\n got %+v\nwant %+v", got, want)
	}

	res, err := stmt.Execute(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if g, w := strconv.FormatFloat(res.Objective, 'g', -1, 64), "3.0999999999999996"; g != w {
		t.Errorf("objective %s, want %s", g, w)
	}
	if res.Size != 3 || res.Distinct != 3 {
		t.Errorf("package size %d/%d, want 3 distinct meals", res.Size, res.Distinct)
	}

	// A second execution of an identical statement is a cache hit with
	// the identical answer.
	again, err := sess.Prepare(mealQuery)
	if err != nil {
		t.Fatal(err)
	}
	res2, err := again.Execute(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !res2.Cached {
		t.Error("identical statement missed the solution cache")
	}
	if res2.Objective != res.Objective {
		t.Errorf("cached objective %g != %g", res2.Objective, res.Objective)
	}
}

// galaxyGoldens pins the exact objective values of every non-hard query
// of the Galaxy workload at a fixed scale and seed, for both methods —
// the solve path is deterministic end to end, so any drift is a
// behavior change, not noise.
var galaxyGoldens = map[string]string{
	"Q1/direct":       "5.246",
	"Q1/sketchrefine": "10.161000000000001",
	"Q3/direct":       "298.676",
	"Q3/sketchrefine": "277.021",
	"Q4/direct":       "75.759",
	"Q4/sketchrefine": "84.10900000000001",
	"Q5/direct":       "104.76599999999999",
	"Q5/sketchrefine": "48.542",
	"Q7/direct":       "33.563",
	"Q7/sketchrefine": "17.622000000000003",
}

func TestGalaxyWorkloadGolden(t *testing.T) {
	rel := workload.Galaxy(2500, 7)
	queries, err := workload.GalaxyQueries(rel)
	if err != nil {
		t.Fatal(err)
	}
	sess, err := paq.Open(paq.Table(rel),
		paq.WithSeed(7),
		paq.WithPartitionAttrs(workload.WorkloadAttrs(queries)...))
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range queries {
		if q.Hard {
			continue // budget-dependent at test scale
		}
		for _, m := range []paq.Method{paq.MethodDirect, paq.MethodSketchRefine} {
			key := q.Name + "/" + string(m)
			stmt, err := sess.Prepare(q.PaQL, paq.WithMethod(m))
			if err != nil {
				t.Fatalf("%s: %v", key, err)
			}
			if m == paq.MethodSketchRefine && stmt.Plan().Partitioning == nil {
				t.Errorf("%s: sketchrefine plan has no partitioning info", key)
			}
			res, err := stmt.Execute(context.Background())
			if err != nil {
				t.Fatalf("%s: %v", key, err)
			}
			if res.Truncated {
				t.Fatalf("%s: truncated at test scale (budget too small for a golden)", key)
			}
			if got, want := strconv.FormatFloat(res.Objective, 'g', -1, 64), galaxyGoldens[key]; got != want {
				t.Errorf("%s: objective %s, want golden %s", key, got, want)
			}
		}
	}
}

// TestErrorTaxonomy drives every typed error from a real internal
// failure and checks errors.Is/As contracts.
func TestErrorTaxonomy(t *testing.T) {
	galaxy := workload.Galaxy(400, 3)
	open := func(t *testing.T, opts ...paq.Option) *paq.Session {
		t.Helper()
		sess, err := paq.Open(paq.Table(galaxy), opts...)
		if err != nil {
			t.Fatal(err)
		}
		return sess
	}
	exec := func(t *testing.T, sess *paq.Session, query string, ctx context.Context) error {
		t.Helper()
		stmt, err := sess.Prepare(query)
		if err != nil {
			t.Fatalf("prepare: %v", err)
		}
		if ctx == nil {
			ctx = context.Background()
		}
		_, err = stmt.Execute(ctx)
		if err == nil {
			t.Fatal("execution unexpectedly succeeded")
		}
		return err
	}
	infeasibleQ := `SELECT PACKAGE(G) AS P FROM galaxy G REPEAT 0
SUCH THAT COUNT(P.*) = 3 AND SUM(P.redshift) <= -1 MINIMIZE SUM(P.r)`
	bigQ := `SELECT PACKAGE(G) AS P FROM galaxy G REPEAT 0
SUCH THAT COUNT(P.*) = 12 AND SUM(P.r) BETWEEN 150 AND 200 MINIMIZE SUM(P.redshift)`

	t.Run("infeasible-direct", func(t *testing.T) {
		err := exec(t, open(t, paq.WithMethod(paq.MethodDirect)), infeasibleQ, nil)
		if !errors.Is(err, paq.ErrInfeasible) {
			t.Errorf("err %v, want ErrInfeasible", err)
		}
		if errors.Is(err, paq.ErrFalseInfeasible) {
			t.Errorf("DIRECT verdict wrongly marked false-infeasible: %v", err)
		}
	})
	t.Run("false-infeasible-sketchrefine", func(t *testing.T) {
		err := exec(t, open(t, paq.WithMethod(paq.MethodSketchRefine)), infeasibleQ, nil)
		if !errors.Is(err, paq.ErrFalseInfeasible) {
			t.Errorf("err %v, want ErrFalseInfeasible", err)
		}
		// The subtype contract: a false-infeasible verdict also satisfies
		// the plain infeasibility check.
		if !errors.Is(err, paq.ErrInfeasible) {
			t.Errorf("ErrFalseInfeasible does not satisfy errors.Is(_, ErrInfeasible): %v", err)
		}
	})
	t.Run("timeout", func(t *testing.T) {
		ctx, cancel := context.WithTimeout(context.Background(), time.Nanosecond)
		defer cancel()
		time.Sleep(time.Millisecond) // ensure the deadline has passed
		err := exec(t, open(t, paq.WithMethod(paq.MethodDirect)), bigQ, ctx)
		if !errors.Is(err, paq.ErrTimeout) {
			t.Errorf("err %v, want ErrTimeout", err)
		}
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Errorf("cause chain lost context.DeadlineExceeded: %v", err)
		}
	})
	t.Run("budget-nodes", func(t *testing.T) {
		err := exec(t, open(t, paq.WithMethod(paq.MethodDirect), paq.WithNodeLimit(1)), bigQ, nil)
		if !errors.Is(err, paq.ErrBudget) {
			t.Errorf("err %v, want ErrBudget", err)
		}
	})
	t.Run("budget-naive-timeout", func(t *testing.T) {
		// An exact-cardinality query whose enumeration cannot finish in
		// 1ns and that has no feasible incumbent to fall back on.
		err := exec(t, open(t, paq.WithMethod(paq.MethodNaive), paq.WithTimeLimit(time.Nanosecond)), infeasibleQ, nil)
		if !errors.Is(err, paq.ErrBudget) {
			t.Errorf("err %v, want ErrBudget", err)
		}
	})
	t.Run("unsupported-naive", func(t *testing.T) {
		// The naive self-join needs an exact cardinality constraint.
		err := exec(t, open(t, paq.WithMethod(paq.MethodNaive)), `SELECT PACKAGE(G) AS P FROM galaxy G REPEAT 0
SUCH THAT SUM(P.redshift) <= 2 MAXIMIZE SUM(P.r)`, nil)
		if !errors.Is(err, paq.ErrUnsupported) {
			t.Errorf("err %v, want ErrUnsupported", err)
		}
	})
	t.Run("parse-error-position", func(t *testing.T) {
		_, err := open(t).Prepare("SELECT PACKAGE(G) AS P\nFROM galaxy G BOGUS")
		var pe *paq.ParseError
		if !errors.As(err, &pe) {
			t.Fatalf("err %v, want *ParseError", err)
		}
		if pe.Line != 2 || pe.Col == 0 {
			t.Errorf("position %d:%d, want line 2 with a column", pe.Line, pe.Col)
		}
	})
	t.Run("compile-error-is-parse-error", func(t *testing.T) {
		_, err := open(t).Prepare(`SELECT PACKAGE(G) AS P FROM galaxy G
SUCH THAT COUNT(P.*) = 1 OR COUNT(P.*) = 2`)
		var pe *paq.ParseError
		if !errors.As(err, &pe) {
			t.Fatalf("err %v, want *ParseError for a translate-stage failure", err)
		}
	})
	t.Run("type-mismatch", func(t *testing.T) {
		sess, err := paq.Open(paq.Table(mealRelation()))
		if err != nil {
			t.Fatal(err)
		}
		_, err = sess.Prepare(`SELECT PACKAGE(R) AS P FROM Recipes R REPEAT 0
SUCH THAT COUNT(P.*) = 1 MINIMIZE SUM(P.name)`)
		if !errors.Is(err, paq.ErrTypeMismatch) {
			t.Errorf("err %v, want ErrTypeMismatch", err)
		}
		var pe *paq.ParseError
		if !errors.As(err, &pe) {
			t.Errorf("type mismatch in the query text should also be a *ParseError: %v", err)
		}
	})
}

// TestIncumbentStreamDirect is the acceptance test for anytime results:
// a DIRECT solve over the galaxy workload streams feasible packages whose
// objectives improve monotonically toward the optimal package it returns.
// Over 250 rows at least two incumbents improve on the first. Over 3 000
// rows the search branches over a working set, where local search tends
// to hand over the optimum at once, so one incumbent is all the stream
// promises.
func TestIncumbentStreamDirect(t *testing.T) {
	for _, tc := range []struct{ rows, atLeast int }{{250, 3}, {3000, 1}} {
		t.Run(strconv.Itoa(tc.rows), func(t *testing.T) {
			rel := workload.Galaxy(tc.rows, 5)
			sess, err := paq.Open(paq.Table(rel), paq.WithMethod(paq.MethodDirect))
			if err != nil {
				t.Fatal(err)
			}
			stmt, err := sess.Prepare(`SELECT PACKAGE(G) AS P FROM galaxy G REPEAT 0
SUCH THAT COUNT(P.*) = 12 AND SUM(P.petrorad) <= 30 AND SUM(P.r) BETWEEN 150 AND 200
MINIMIZE SUM(P.redshift)`)
			if err != nil {
				t.Fatal(err)
			}
			var incs []paq.Incumbent
			res, err := stmt.Execute(context.Background(), paq.WithIncumbent(func(inc paq.Incumbent) {
				incs = append(incs, inc)
			}))
			if err != nil {
				t.Fatal(err)
			}
			if len(incs) < tc.atLeast {
				t.Fatalf("observed %d incumbents, want at least %d", len(incs), tc.atLeast)
			}
			petrorad, r := rel.Schema().Lookup("petrorad"), rel.Schema().Lookup("r")
			for i, inc := range incs {
				count, sumP, sumR := 0, 0.0, 0.0
				for k, row := range inc.Rows {
					count += inc.Mult[k]
					sumP += float64(inc.Mult[k]) * rel.Float(row, petrorad)
					sumR += float64(inc.Mult[k]) * rel.Float(row, r)
				}
				if count != 12 || sumP > 30+1e-6 || sumR < 150-1e-6 || sumR > 200+1e-6 {
					t.Errorf("incumbent %d is infeasible: COUNT %d, SUM(petrorad) %g, SUM(r) %g", i, count, sumP, sumR)
				}
				if inc.Seq != i+1 {
					t.Errorf("incumbent %d has Seq %d", i, inc.Seq)
				}
				if i > 0 && inc.Objective >= incs[i-1].Objective {
					t.Errorf("incumbent %d objective %g does not improve on %g (minimization)",
						i, inc.Objective, incs[i-1].Objective)
				}
			}
			last := incs[len(incs)-1]
			if diff := last.Objective - res.Objective; diff > 1e-9 || diff < -1e-9 {
				t.Errorf("final incumbent objective %g != result objective %g", last.Objective, res.Objective)
			}
			if len(last.Rows) == 0 {
				t.Error("incumbents of a DIRECT solve must carry the package rows")
			}
			if res.Incumbents != len(incs) {
				t.Errorf("Result.Incumbents = %d, streamed %d", res.Incumbents, len(incs))
			}
			if got := sess.Incumbents(); got != uint64(len(incs)) {
				t.Errorf("session incumbent counter = %d, want %d", got, len(incs))
			}
		})
	}
}

// TestIncumbentStreamSketchRefine: the stream also works through the
// SketchRefine path (subproblem-tagged incumbents).
func TestIncumbentStreamSketchRefine(t *testing.T) {
	rel := workload.Galaxy(1500, 5)
	sess, err := paq.Open(paq.Table(rel), paq.WithMethod(paq.MethodSketchRefine))
	if err != nil {
		t.Fatal(err)
	}
	stmt, err := sess.Prepare(`SELECT PACKAGE(G) AS P FROM galaxy G REPEAT 0
SUCH THAT COUNT(P.*) = 6 AND SUM(P.redshift) <= 4.0 MAXIMIZE SUM(P.petrorad)`)
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	sawSketch := false
	res, err := stmt.Execute(context.Background(), paq.WithIncumbent(func(inc paq.Incumbent) {
		n++
		if inc.Sketch {
			sawSketch = true
		}
	}))
	if err != nil {
		t.Fatal(err)
	}
	if n == 0 {
		t.Fatal("SketchRefine solve streamed no incumbents")
	}
	if !sawSketch {
		t.Error("no sketch-phase incumbent observed")
	}
	if res.Incumbents != n {
		t.Errorf("Result.Incumbents = %d, streamed %d", res.Incumbents, n)
	}
}

// TestRowSubsetExecution: WithRows restricts both strategies to a
// sample, and the restricted answers stay feasible for the full spec.
// A reseed is bespoke only where it can change the answer: alone, on a
// method other than SketchRefine, it is an ordinary execution — naive
// runs it, and the second call is served from the cache.
func TestRowSubsetExecution(t *testing.T) {
	const n = 1200
	rows := make([]int, 0, n/2)
	for i := 0; i < n; i += 2 {
		rows = append(rows, i)
	}
	inSample := make(map[int]bool, len(rows))
	for _, r := range rows {
		inSample[r] = true
	}
	for _, tc := range []struct {
		m      paq.Method
		name   string
		opt    paq.ExecOption
		card   int
		subset bool
	}{
		{paq.MethodDirect, "rows", paq.WithRows(rows), 5, true},
		{paq.MethodSketchRefine, "rows", paq.WithRows(rows), 5, true},
		{paq.MethodNaive, "seed", paq.WithExecSeed(7), 2, false},
		{paq.MethodDirect, "seed", paq.WithExecSeed(7), 5, false},
	} {
		sess, err := paq.Open(paq.Table(workload.Galaxy(n, 9)), paq.WithMethod(tc.m))
		if err != nil {
			t.Fatal(err)
		}
		stmt, err := sess.Prepare(`SELECT PACKAGE(G) AS P FROM galaxy G REPEAT 0
SUCH THAT COUNT(P.*) = ` + strconv.Itoa(tc.card) + ` AND SUM(P.redshift) <= 4.0 MAXIMIZE SUM(P.petrorad)`)
		if err != nil {
			t.Fatal(err)
		}
		res, err := stmt.Execute(context.Background(), tc.opt)
		if err != nil {
			t.Fatalf("%s/%s: %v", tc.m, tc.name, err)
		}
		if res.Cached {
			t.Errorf("%s/%s: first execution served from the cache", tc.m, tc.name)
		}
		again, err := stmt.Execute(context.Background(), tc.opt)
		if err != nil {
			t.Fatalf("%s/%s: second execution: %v", tc.m, tc.name, err)
		}
		if again.Cached == tc.subset {
			t.Errorf("%s/%s: second execution Cached=%v (row subsets bypass the cache, a seed alone must not)", tc.m, tc.name, again.Cached)
		}
		if !tc.subset {
			continue
		}
		for _, r := range res.Rows {
			if !inSample[r] {
				t.Fatalf("%s: row %d outside the sample", tc.m, r)
			}
		}
		// A row list is caller input: out of range, negative, tombstoned
		// or repeated, it is a validation error naming the row — not a
		// panic, and not a package holding a deleted row.
		if _, err := sess.DeleteRows([]int{7}); err != nil {
			t.Fatal(err)
		}
		for _, bad := range []struct {
			rows  []int
			names string
		}{
			{[]int{0, 1, 2, 5000}, "row 5000"},
			{[]int{-1, 4}, "row -1"},
			{[]int{7, 8}, "row 7"},
			{[]int{8, 10, 8}, "row 8"},
		} {
			_, err := stmt.Execute(context.Background(), paq.WithRows(bad.rows))
			if err == nil || !strings.Contains(err.Error(), bad.names) {
				t.Errorf("%s: WithRows(%v): err = %v, want one naming %s", tc.m, bad.rows, err, bad.names)
			}
			for _, tagged := range []error{paq.ErrInfeasible, paq.ErrUnsupported, paq.ErrBudget} {
				if errors.Is(err, tagged) {
					t.Errorf("%s: WithRows(%v): validation error tagged %v", tc.m, bad.rows, tagged)
				}
			}
		}
	}
}

// TestExecSeedMatchesSessionSeed: a reseeded SketchRefine execution
// takes the bespoke path, which builds its own strategy value. It must be
// the engine path's at that seed: the same rows, multiplicities,
// objective bits and subproblem count as a session opened WithSeed.
func TestExecSeedMatchesSessionSeed(t *testing.T) {
	rel := workload.Galaxy(2500, 7)
	queries, err := workload.GalaxyQueries(rel)
	if err != nil {
		t.Fatal(err)
	}
	attrs := paq.WithPartitionAttrs(workload.WorkloadAttrs(queries)...)
	sess, err := paq.Open(paq.Table(rel), attrs, paq.WithMethod(paq.MethodSketchRefine))
	if err != nil {
		t.Fatal(err)
	}
	for _, seed := range []int64{3, 11, 29} {
		ref, err := paq.Open(paq.Table(rel), attrs, paq.WithMethod(paq.MethodSketchRefine),
			paq.WithSeed(seed), paq.WithoutCache())
		if err != nil {
			t.Fatal(err)
		}
		for _, q := range queries {
			if q.Hard {
				continue // budget-dependent at test scale
			}
			name := q.Name + "/seed=" + strconv.FormatInt(seed, 10)
			run := func(s *paq.Session, opts ...paq.ExecOption) *paq.Result {
				t.Helper()
				stmt, err := s.Prepare(q.PaQL)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				res, err := stmt.Execute(context.Background(), opts...)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				return res
			}
			got, want := run(sess, paq.WithExecSeed(seed)), run(ref)
			if !slices.Equal(got.Rows, want.Rows) || !slices.Equal(got.Mult, want.Mult) {
				t.Errorf("%s: package %v×%v, want %v×%v", name, got.Rows, got.Mult, want.Rows, want.Mult)
			}
			if math.Float64bits(got.Objective) != math.Float64bits(want.Objective) {
				t.Errorf("%s: objective %v, want %v", name, got.Objective, want.Objective)
			}
			if got.Stats.Subproblems != want.Stats.Subproblems {
				t.Errorf("%s: %d subproblems, want %d", name, got.Stats.Subproblems, want.Stats.Subproblems)
			}
		}
	}
}

// TestSessionClone: a clone shares the (expensive, immutable)
// partitioning but not the solution cache.
func TestSessionClone(t *testing.T) {
	rel := workload.Galaxy(1000, 3)
	sess, err := paq.Open(paq.Table(rel),
		paq.WithMethod(paq.MethodSketchRefine),
		paq.WithPartitionAttrs("ra", "dec", "redshift", "petrorad"),
		paq.WithWarmPartitioning())
	if err != nil {
		t.Fatal(err)
	}
	const q = `SELECT PACKAGE(G) AS P FROM galaxy G REPEAT 0
SUCH THAT COUNT(P.*) = 4 AND SUM(P.redshift) <= 3.0 MAXIMIZE SUM(P.petrorad)`
	stmt, err := sess.Prepare(q)
	if err != nil {
		t.Fatal(err)
	}
	res, err := stmt.Execute(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	clone, err := sess.Clone()
	if err != nil {
		t.Fatal(err)
	}
	cstmt, err := clone.Prepare(q)
	if err != nil {
		t.Fatal(err)
	}
	cres, err := cstmt.Execute(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if cres.Cached {
		t.Error("clone shared the solution cache")
	}
	if cres.Objective != res.Objective {
		t.Errorf("clone objective %g != original %g", cres.Objective, res.Objective)
	}
	pi, err := sess.Partitioning()
	if err != nil {
		t.Fatal(err)
	}
	cpi, err := clone.Partitioning()
	if err != nil {
		t.Fatal(err)
	}
	if pi.Groups != cpi.Groups || pi.BuildMS != cpi.BuildMS {
		t.Errorf("clone rebuilt the partitioning: %+v vs %+v", cpi, pi)
	}
}

// TestParseMethod pins the single source of method names.
func TestParseMethod(t *testing.T) {
	for in, want := range map[string]paq.Method{
		"":             paq.MethodAuto,
		"auto":         paq.MethodAuto,
		"direct":       paq.MethodDirect,
		"DIRECT":       paq.MethodDirect,
		"SketchRefine": paq.MethodSketchRefine,
		"naive":        paq.MethodNaive,
	} {
		got, err := paq.ParseMethod(in)
		if err != nil || got != want {
			t.Errorf("ParseMethod(%q) = %q, %v; want %q", in, got, err, want)
		}
	}
	if _, err := paq.ParseMethod("cplex"); err == nil {
		t.Error("ParseMethod accepted an unknown method")
	}
}
