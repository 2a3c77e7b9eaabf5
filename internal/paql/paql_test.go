package paql

import (
	"strings"
	"testing"
)

const mealQuery = `
SELECT PACKAGE(R) AS P
FROM Recipes R REPEAT 0
WHERE R.gluten = 'free'
SUCH THAT COUNT(P.*) = 3 AND
          SUM(P.kcal) BETWEEN 2.0 AND 2.5
MINIMIZE SUM(P.saturated_fat)`

func TestParseMealPlanner(t *testing.T) {
	q, err := Parse(mealQuery)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if q.PackageName != "P" {
		t.Errorf("package name %q, want P", q.PackageName)
	}
	if len(q.From) != 1 || q.From[0].Rel != "Recipes" || q.From[0].Alias != "R" {
		t.Errorf("FROM = %+v", q.From)
	}
	if q.From[0].Repeat != 0 {
		t.Errorf("repeat = %d, want 0", q.From[0].Repeat)
	}
	if q.Where == nil {
		t.Fatal("missing WHERE")
	}
	cmp, ok := q.Where.(Cmp)
	if !ok || cmp.Op != Eq {
		t.Fatalf("WHERE = %#v, want equality comparison", q.Where)
	}
	st, ok := q.SuchThat.(Bool)
	if !ok || st.Kind != AndExpr || len(st.Kids) != 2 {
		t.Fatalf("SUCH THAT = %#v, want AND of 2", q.SuchThat)
	}
	if _, ok := st.Kids[0].(Cmp); !ok {
		t.Errorf("first conjunct = %#v, want comparison", st.Kids[0])
	}
	if _, ok := st.Kids[1].(Between); !ok {
		t.Errorf("second conjunct = %#v, want BETWEEN", st.Kids[1])
	}
	if q.Objective == nil || q.Objective.Sense != Minimize {
		t.Fatalf("objective = %+v, want MINIMIZE", q.Objective)
	}
	agg, ok := q.Objective.Expr.(Agg)
	if !ok || agg.Fn != AggSum || agg.Arg.Name != "saturated_fat" || agg.Over != "P" {
		t.Errorf("objective expr = %#v", q.Objective.Expr)
	}
}

func TestParseNoRepeatUnlimited(t *testing.T) {
	q, err := Parse(`SELECT PACKAGE(R) AS P FROM Recipes R SUCH THAT COUNT(P.*) = 2`)
	if err != nil {
		t.Fatal(err)
	}
	if q.From[0].Repeat != -1 {
		t.Errorf("repeat = %d, want -1 (unlimited)", q.From[0].Repeat)
	}
}

func TestParseDefaultPackageName(t *testing.T) {
	q, err := Parse(`SELECT PACKAGE(R) FROM Recipes R SUCH THAT COUNT(R.*) >= 1`)
	if err != nil {
		t.Fatal(err)
	}
	if q.PackageName != "R" {
		t.Errorf("default package name %q, want R", q.PackageName)
	}
}

func TestParseImplicitAS(t *testing.T) {
	q, err := Parse(`SELECT PACKAGE(R) Pkg FROM Recipes R SUCH THAT COUNT(Pkg.*) >= 1`)
	if err != nil {
		t.Fatal(err)
	}
	if q.PackageName != "Pkg" {
		t.Errorf("package name %q, want Pkg", q.PackageName)
	}
}

func TestParseSubqueryAggregates(t *testing.T) {
	src := `
SELECT PACKAGE(R) AS P FROM Recipes R REPEAT 0
SUCH THAT (SELECT COUNT(*) FROM P WHERE carbs > 0) >=
          (SELECT COUNT(*) FROM P WHERE protein <= 5)
MAXIMIZE SUM(P.protein)`
	q, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	cmp, ok := q.SuchThat.(Cmp)
	if !ok || cmp.Op != Ge {
		t.Fatalf("SUCH THAT = %#v", q.SuchThat)
	}
	l, ok := cmp.L.(Agg)
	if !ok || l.Fn != AggCount || !l.Arg.Star || l.Where == nil {
		t.Fatalf("left agg = %#v", cmp.L)
	}
	r, ok := cmp.R.(Agg)
	if !ok || r.Where == nil {
		t.Fatalf("right agg = %#v", cmp.R)
	}
	if q.Objective.Sense != Maximize {
		t.Error("objective sense wrong")
	}
}

func TestParseConditionalSumSubquery(t *testing.T) {
	src := `SELECT PACKAGE(R) AS P FROM T R
SUCH THAT (SELECT SUM(price) FROM P WHERE region = 'EU') <= 100 AND COUNT(P.*) = 5`
	q, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	and := q.SuchThat.(Bool)
	cmp := and.Kids[0].(Cmp)
	agg := cmp.L.(Agg)
	if agg.Fn != AggSum || agg.Arg.Name != "price" || agg.Where == nil {
		t.Fatalf("conditional SUM = %#v", agg)
	}
}

func TestParseArithmeticInConstraints(t *testing.T) {
	src := `SELECT PACKAGE(R) AS P FROM T R
SUCH THAT SUM(P.a) + 2 * SUM(P.b) - 1 <= 10 AND AVG(P.c) >= 0.5
MAXIMIZE 3 * SUM(P.a) - SUM(P.b)`
	q, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	and, ok := q.SuchThat.(Bool)
	if !ok || len(and.Kids) != 2 {
		t.Fatalf("SUCH THAT = %#v", q.SuchThat)
	}
	if _, ok := q.Objective.Expr.(Arith); !ok {
		t.Fatalf("objective = %#v, want arithmetic", q.Objective.Expr)
	}
}

func TestParseOrAndNot(t *testing.T) {
	src := `SELECT PACKAGE(R) AS P FROM T R
WHERE a > 1 OR NOT (b = 'x' AND c < 2)
SUCH THAT COUNT(P.*) = 1`
	q, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	or, ok := q.Where.(Bool)
	if !ok || or.Kind != OrExpr {
		t.Fatalf("WHERE = %#v, want OR", q.Where)
	}
	not, ok := or.Kids[1].(Bool)
	if !ok || not.Kind != NotExpr {
		t.Fatalf("second disjunct = %#v, want NOT", or.Kids[1])
	}
}

func TestParseRepeatK(t *testing.T) {
	q, err := Parse(`SELECT PACKAGE(R) AS P FROM T R REPEAT 2 SUCH THAT COUNT(P.*) = 4`)
	if err != nil {
		t.Fatal(err)
	}
	if q.From[0].Repeat != 2 {
		t.Errorf("repeat = %d, want 2", q.From[0].Repeat)
	}
}

func TestParseErrors(t *testing.T) {
	cases := []struct {
		name, src, wantSub string
	}{
		{"missing select", `PACKAGE(R) FROM T R`, "SELECT"},
		{"missing package", `SELECT * FROM T R`, "PACKAGE"},
		{"missing from", `SELECT PACKAGE(R) AS P WHERE a = 1`, "FROM"},
		{"bad repeat negative", `SELECT PACKAGE(R) AS P FROM T R REPEAT -1 SUCH THAT COUNT(P.*) = 1`, "REPEAT"},
		{"bad repeat fraction", `SELECT PACKAGE(R) AS P FROM T R REPEAT 1.5 SUCH THAT COUNT(P.*) = 1`, "REPEAT"},
		{"unterminated string", `SELECT PACKAGE(R) AS P FROM T R WHERE a = 'x`, "unterminated"},
		{"unknown package alias", `SELECT PACKAGE(Z) AS P FROM T R SUCH THAT COUNT(P.*) = 1`, "PACKAGE(Z)"},
		{"agg in where", `SELECT PACKAGE(R) AS P FROM T R WHERE SUM(P.a) > 1 SUCH THAT COUNT(P.*) = 1`, "WHERE"},
		{"no agg in such that", `SELECT PACKAGE(R) AS P FROM T R SUCH THAT 1 = 1`, "SUCH THAT"},
		{"bare column in such that", `SELECT PACKAGE(R) AS P FROM T R SUCH THAT COUNT(P.*) = a`, "bare column"},
		{"bare column in objective", `SELECT PACKAGE(R) AS P FROM T R SUCH THAT COUNT(P.*) = 1 MINIMIZE a`, "objective"},
		{"multi relation", `SELECT PACKAGE(R, S) AS P FROM T R, U S SUCH THAT COUNT(P.*) = 1`, "multi-relation"},
		{"sum star", `SELECT PACKAGE(R) AS P FROM T R SUCH THAT SUM(P.*) = 1`, "SUM(*)"},
		{"unknown agg alias", `SELECT PACKAGE(R) AS P FROM T R SUCH THAT COUNT(Q.*) = 1`, "unknown alias"},
		{"trailing garbage", `SELECT PACKAGE(R) AS P FROM T R SUCH THAT COUNT(P.*) = 1 garbage extra`, "trailing"},
		{"bad char", "SELECT PACKAGE(R) AS P FROM T R SUCH THAT COUNT(P.*) = 1 %", "unexpected"},
		{"missing cmp", `SELECT PACKAGE(R) AS P FROM T R WHERE a SUCH THAT COUNT(P.*) = 1`, "comparison"},
	}
	for _, c := range cases {
		_, err := Parse(c.src)
		if err == nil {
			t.Errorf("%s: parse succeeded, want error containing %q", c.name, c.wantSub)
			continue
		}
		if !strings.Contains(err.Error(), c.wantSub) {
			t.Errorf("%s: error %q does not mention %q", c.name, err, c.wantSub)
		}
	}
}

func TestParseCaseInsensitiveKeywords(t *testing.T) {
	src := `select package(r) as p from t r repeat 0
where r.x > 1 such that count(p.*) = 2 minimize sum(p.y)`
	q, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	if q.PackageName != "p" || q.From[0].Repeat != 0 {
		t.Errorf("parsed query wrong: %+v", q)
	}
}

func TestParseComments(t *testing.T) {
	src := `SELECT PACKAGE(R) AS P -- choose a package
FROM T R -- input
SUCH THAT COUNT(P.*) = 1`
	if _, err := Parse(src); err != nil {
		t.Fatal(err)
	}
}

func TestParseQuotedStringEscape(t *testing.T) {
	q, err := Parse(`SELECT PACKAGE(R) AS P FROM T R WHERE name = 'it''s' SUCH THAT COUNT(P.*) = 1`)
	if err != nil {
		t.Fatal(err)
	}
	cmp := q.Where.(Cmp)
	if lit, ok := cmp.R.(StrLit); !ok || lit.Val != "it's" {
		t.Errorf("string literal = %#v, want it's", cmp.R)
	}
}

func TestParseNumberForms(t *testing.T) {
	src := `SELECT PACKAGE(R) AS P FROM T R
WHERE a >= 1.5e3 AND b < .25 AND c <> 2E-2
SUCH THAT COUNT(P.*) = 1`
	if _, err := Parse(src); err != nil {
		t.Fatal(err)
	}
}

func TestRoundTripThroughString(t *testing.T) {
	// Parsing the String() rendering of a query must produce an
	// equivalent query (fixed point after one round trip).
	srcs := []string{
		mealQuery,
		`SELECT PACKAGE(R) AS P FROM T R SUCH THAT (SELECT COUNT(*) FROM P WHERE x > 0) >= 2 MAXIMIZE SUM(P.y)`,
		`SELECT PACKAGE(R) AS P FROM T R REPEAT 3 WHERE a = 1 AND b <> 'z' SUCH THAT SUM(P.a) + SUM(P.b) <= 10`,
	}
	for _, src := range srcs {
		q1, err := Parse(src)
		if err != nil {
			t.Fatalf("parse original: %v", err)
		}
		rendered := q1.String()
		q2, err := Parse(rendered)
		if err != nil {
			t.Fatalf("parse rendering %q: %v", rendered, err)
		}
		if q2.String() != rendered {
			t.Errorf("round trip not a fixed point:\n%s\nvs\n%s", rendered, q2.String())
		}
	}
}

func TestNestedAggregateRejected(t *testing.T) {
	src := `SELECT PACKAGE(R) AS P FROM T R
SUCH THAT (SELECT COUNT(*) FROM P WHERE SUM(P.a) > 1) = 1`
	if _, err := Parse(src); err == nil {
		t.Fatal("nested aggregate accepted")
	}
}

func TestWalkCoversAllNodes(t *testing.T) {
	q, err := Parse(mealQuery)
	if err != nil {
		t.Fatal(err)
	}
	countW, countS, tops := 0, 0, 0
	Inspect(q.Where, func(Expr) bool { countW++; return true })
	Inspect(q.SuchThat, func(Expr) bool { countS++; return true })
	Inspect(q.SuchThat, func(Expr) bool { tops++; return false })
	if countW < 3 {
		t.Errorf("WHERE walk visited %d nodes, want >= 3", countW)
	}
	if countS < 6 {
		t.Errorf("SUCH THAT walk visited %d nodes, want >= 6", countS)
	}
	if tops != 1 {
		t.Errorf("a walk refused at the root visited %d nodes, want 1", tops)
	}
	Inspect(nil, func(Expr) bool { t.Error("walk of nil expression visited a node"); return true })
}
