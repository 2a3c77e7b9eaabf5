package translate

import (
	"context"
	"fmt"
	"math"
	"slices"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/ilp"
	"repro/internal/lp"
	"repro/internal/paql"
	"repro/internal/relation"
	"repro/internal/reltest"
)

func recipesRel() *relation.Relation {
	r := relation.New("recipes", reltest.Schema(
		relation.Column{Name: "name", Type: relation.String},
		relation.Column{Name: "gluten", Type: relation.String},
		relation.Column{Name: "kcal", Type: relation.Float},
		relation.Column{Name: "saturated_fat", Type: relation.Float},
		relation.Column{Name: "carbs", Type: relation.Float},
		relation.Column{Name: "protein", Type: relation.Float},
	))
	rows := []struct {
		name, gluten              string
		kcal, fat, carbs, protein float64
	}{
		{"pasta", "full", 0.9, 4.0, 40, 8},
		{"salad", "free", 0.3, 0.5, 5, 2},
		{"steak", "free", 0.8, 7.0, 0, 30},
		{"rice", "free", 0.7, 0.2, 45, 4},
		{"soup", "free", 0.5, 1.0, 10, 5},
		{"bread", "full", 0.4, 0.8, 30, 6},
		{"tofu", "free", 0.6, 0.9, 3, 12},
		{"fish", "free", 0.9, 1.5, 0, 25},
	}
	for _, x := range rows {
		reltest.Append(r, relation.S(x.name), relation.S(x.gluten), relation.F(x.kcal),
			relation.F(x.fat), relation.F(x.carbs), relation.F(x.protein))
	}
	return r
}

func compileOK(t *testing.T, src string, rel *relation.Relation) *core.Spec {
	t.Helper()
	spec, err := Compile(src, rel)
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	return spec
}

func TestCompileMealQueryEndToEnd(t *testing.T) {
	rel := recipesRel()
	spec := compileOK(t, `
SELECT PACKAGE(R) AS P
FROM recipes R REPEAT 0
WHERE R.gluten = 'free'
SUCH THAT COUNT(P.*) = 3 AND SUM(P.kcal) BETWEEN 2.0 AND 2.5
MINIMIZE SUM(P.saturated_fat)`, rel)

	if spec.Repeat != 0 {
		t.Errorf("repeat = %d, want 0", spec.Repeat)
	}
	if len(spec.Constraints) != 3 { // COUNT=, SUM>=, SUM<=
		t.Fatalf("constraints = %d, want 3", len(spec.Constraints))
	}
	if got := len(spec.BaseRows()); got != 6 {
		t.Errorf("base rows = %d, want 6", got)
	}
	pkg, _, err := core.Direct(context.Background(), spec, ilp.Options{}, nil)
	if err != nil {
		t.Fatalf("Direct: %v", err)
	}
	if pkg.Size() != 3 {
		t.Errorf("package size %d, want 3", pkg.Size())
	}
	kcal, _ := relation.WeightedAggregate(rel, relation.Sum, "kcal", pkg.Rows, pkg.Mult)
	if kcal < 2.0-1e-9 || kcal > 2.5+1e-9 {
		t.Errorf("SUM(kcal) = %g outside [2, 2.5]", kcal)
	}
}

func TestCompileAvgRewrite(t *testing.T) {
	rel := recipesRel()
	spec := compileOK(t, `
SELECT PACKAGE(R) AS P FROM recipes R REPEAT 0
SUCH THAT COUNT(P.*) = 3 AND AVG(P.kcal) <= 0.6
MAXIMIZE SUM(P.carbs)`, rel)
	pkg, _, err := core.Direct(context.Background(), spec, ilp.Options{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	avg, _ := relation.WeightedAggregate(rel, relation.Avg, "kcal", pkg.Rows, pkg.Mult)
	if avg > 0.6+1e-9 {
		t.Errorf("AVG(kcal) = %g, want <= 0.6", avg)
	}
	// The AVG constraint must be a shifted coefficient with RHS 0.
	found := false
	for _, c := range spec.Constraints {
		if c.RHS == 0 && c.Op == lp.LE && strings.Contains(c.Coef.String(), "kcal") {
			found = true
		}
	}
	if !found {
		t.Error("AVG rewrite (Σ(kcal − v)x ≤ 0) not found in constraints")
	}
}

func TestCompileConditionalSubqueries(t *testing.T) {
	rel := recipesRel()
	spec := compileOK(t, `
SELECT PACKAGE(R) AS P FROM recipes R REPEAT 0
SUCH THAT COUNT(P.*) = 4 AND
          (SELECT COUNT(*) FROM P WHERE carbs > 0) >= (SELECT COUNT(*) FROM P WHERE protein <= 5)
MAXIMIZE SUM(P.protein)`, rel)
	pkg, _, err := core.Direct(context.Background(), spec, ilp.Options{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	carby, lowProt := 0, 0
	for k, r := range pkg.Rows {
		if rel.Float(r, 4) > 0 {
			carby += pkg.Mult[k]
		}
		if rel.Float(r, 5) <= 5 {
			lowProt += pkg.Mult[k]
		}
	}
	if carby < lowProt {
		t.Errorf("conditional count constraint violated: %d carby < %d low-protein", carby, lowProt)
	}
}

func TestCompileConditionalSum(t *testing.T) {
	rel := recipesRel()
	spec := compileOK(t, `
SELECT PACKAGE(R) AS P FROM recipes R REPEAT 0
SUCH THAT COUNT(P.*) = 3 AND (SELECT SUM(kcal) FROM P WHERE gluten = 'free') <= 1.5
MAXIMIZE SUM(P.kcal)`, rel)
	pkg, _, err := core.Direct(context.Background(), spec, ilp.Options{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	freeKcal := 0.0
	for k, r := range pkg.Rows {
		if rel.Str(r, 1) == "free" {
			freeKcal += float64(pkg.Mult[k]) * rel.Float(r, 2)
		}
	}
	if freeKcal > 1.5+1e-9 {
		t.Errorf("conditional SUM = %g, want <= 1.5", freeKcal)
	}
}

func TestCompileMinMaxRestrictions(t *testing.T) {
	rel := recipesRel()
	spec := compileOK(t, `
SELECT PACKAGE(R) AS P FROM recipes R REPEAT 0
SUCH THAT COUNT(P.*) = 3 AND MIN(P.kcal) >= 0.5 AND MAX(P.saturated_fat) <= 2
MAXIMIZE SUM(P.carbs)`, rel)
	if len(spec.Restrictions) != 2 {
		t.Fatalf("restrictions = %d, want 2", len(spec.Restrictions))
	}
	pkg, _, err := core.Direct(context.Background(), spec, ilp.Options{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range pkg.Rows {
		if rel.Float(r, 2) < 0.5 {
			t.Errorf("tuple %d kcal %g < 0.5", r, rel.Float(r, 2))
		}
		if rel.Float(r, 3) > 2 {
			t.Errorf("tuple %d fat %g > 2", r, rel.Float(r, 3))
		}
	}
}

func TestCompileMinMaxDisjunctiveRejected(t *testing.T) {
	rel := recipesRel()
	cases := []string{
		`SELECT PACKAGE(R) AS P FROM recipes R SUCH THAT COUNT(P.*) = 2 AND MIN(P.kcal) <= 0.5`,
		`SELECT PACKAGE(R) AS P FROM recipes R SUCH THAT COUNT(P.*) = 2 AND MAX(P.kcal) >= 0.5`,
		`SELECT PACKAGE(R) AS P FROM recipes R SUCH THAT COUNT(P.*) = 2 AND MIN(P.kcal) = 0.5`,
	}
	for _, src := range cases {
		if _, err := Compile(src, rel); err == nil {
			t.Errorf("disjunctive MIN/MAX accepted: %s", src)
		}
	}
}

func TestCompileArithmeticCombination(t *testing.T) {
	rel := recipesRel()
	spec := compileOK(t, `
SELECT PACKAGE(R) AS P FROM recipes R REPEAT 0
SUCH THAT COUNT(P.*) = 2 AND SUM(P.kcal) + 2 * SUM(P.saturated_fat) <= 4
MAXIMIZE 2 * SUM(P.carbs) - SUM(P.protein) + 10`, rel)
	if spec.Objective.Offset != 10 {
		t.Errorf("objective offset = %g, want 10", spec.Objective.Offset)
	}
	pkg, _, err := core.Direct(context.Background(), spec, ilp.Options{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	kcal, _ := relation.WeightedAggregate(rel, relation.Sum, "kcal", pkg.Rows, pkg.Mult)
	fat, _ := relation.WeightedAggregate(rel, relation.Sum, "saturated_fat", pkg.Rows, pkg.Mult)
	if kcal+2*fat > 4+1e-9 {
		t.Errorf("combined constraint violated: %g", kcal+2*fat)
	}
	obj, _ := pkg.ObjectiveValue(spec)
	carbs, _ := relation.WeightedAggregate(rel, relation.Sum, "carbs", pkg.Rows, pkg.Mult)
	prot, _ := relation.WeightedAggregate(rel, relation.Sum, "protein", pkg.Rows, pkg.Mult)
	if math.Abs(obj-(2*carbs-prot+10)) > 1e-9 {
		t.Errorf("objective %g != 2*%g - %g + 10", obj, carbs, prot)
	}
}

func TestCompileNegativeWeightNormalization(t *testing.T) {
	rel := recipesRel()
	// -2 * AVG(P.kcal) >= -1.2  ⇔  AVG(P.kcal) <= 0.6.
	spec := compileOK(t, `
SELECT PACKAGE(R) AS P FROM recipes R REPEAT 0
SUCH THAT COUNT(P.*) = 3 AND -2 * AVG(P.kcal) >= -1.2
MAXIMIZE SUM(P.carbs)`, rel)
	pkg, _, err := core.Direct(context.Background(), spec, ilp.Options{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	avg, _ := relation.WeightedAggregate(rel, relation.Avg, "kcal", pkg.Rows, pkg.Mult)
	if avg > 0.6+1e-9 {
		t.Errorf("AVG = %g, want <= 0.6", avg)
	}
}

func TestCompileWhereArithmetic(t *testing.T) {
	rel := recipesRel()
	spec := compileOK(t, `
SELECT PACKAGE(R) AS P FROM recipes R REPEAT 0
WHERE R.carbs + R.protein > 20 AND R.kcal * 2 <= 1.8
SUCH THAT COUNT(P.*) >= 1
MAXIMIZE SUM(P.kcal)`, rel)
	rows := spec.BaseRows()
	for _, r := range rows {
		if rel.Float(r, 4)+rel.Float(r, 5) <= 20 || rel.Float(r, 2)*2 > 1.8 {
			t.Errorf("row %d fails WHERE arithmetic", r)
		}
	}
	if len(rows) == 0 {
		t.Fatal("no base rows matched")
	}
}

func TestCompileWhereBetweenAndOrNot(t *testing.T) {
	rel := recipesRel()
	spec := compileOK(t, `
SELECT PACKAGE(R) AS P FROM recipes R REPEAT 0
WHERE R.kcal BETWEEN 0.4 AND 0.8 AND (R.gluten = 'free' OR NOT R.carbs > 10)
SUCH THAT COUNT(P.*) >= 1`, rel)
	want := map[string]bool{"steak": true, "rice": true, "soup": true, "tofu": true, "bread": false, "salad": false}
	for _, r := range spec.BaseRows() {
		name := rel.Str(r, 0)
		if ok, known := want[name]; known && !ok {
			t.Errorf("row %q should not match", name)
		}
		v := rel.Float(r, 2)
		if v < 0.4 || v > 0.8 {
			t.Errorf("row %q kcal %g outside BETWEEN", name, v)
		}
	}
}

func TestCompileRejectsNonlinear(t *testing.T) {
	rel := recipesRel()
	cases := []struct{ name, src string }{
		{"agg product", `SELECT PACKAGE(R) AS P FROM recipes R SUCH THAT SUM(P.kcal) * SUM(P.carbs) <= 4`},
		{"agg division", `SELECT PACKAGE(R) AS P FROM recipes R SUCH THAT 1 / SUM(P.kcal) <= 4`},
		{"avg plus sum", `SELECT PACKAGE(R) AS P FROM recipes R SUCH THAT AVG(P.kcal) + SUM(P.carbs) <= 4`},
		{"ne operator", `SELECT PACKAGE(R) AS P FROM recipes R SUCH THAT COUNT(P.*) <> 3`},
		{"or global", `SELECT PACKAGE(R) AS P FROM recipes R SUCH THAT COUNT(P.*) = 3 OR COUNT(P.*) = 4`},
		{"avg objective", `SELECT PACKAGE(R) AS P FROM recipes R SUCH THAT COUNT(P.*) = 3 MINIMIZE AVG(P.kcal)`},
		{"between nonconst", `SELECT PACKAGE(R) AS P FROM recipes R SUCH THAT SUM(P.kcal) BETWEEN COUNT(P.*) AND 5`},
	}
	for _, c := range cases {
		if _, err := Compile(c.src, rel); err == nil {
			t.Errorf("%s: accepted", c.name)
		}
	}
}

func TestCompileRelationNameMismatch(t *testing.T) {
	rel := recipesRel()
	if _, err := Compile(`SELECT PACKAGE(R) AS P FROM other R SUCH THAT COUNT(P.*) = 1`, rel); err == nil {
		t.Fatal("relation name mismatch accepted")
	}
}

func TestCompileUnknownColumn(t *testing.T) {
	rel := recipesRel()
	cases := []string{
		`SELECT PACKAGE(R) AS P FROM recipes R WHERE R.nope = 1 SUCH THAT COUNT(P.*) = 1`,
		`SELECT PACKAGE(R) AS P FROM recipes R SUCH THAT SUM(P.nope) <= 1`,
		`SELECT PACKAGE(R) AS P FROM recipes R SUCH THAT COUNT(P.*) = 1 MINIMIZE SUM(P.nope)`,
	}
	for _, src := range cases {
		if _, err := Compile(src, rel); err == nil {
			t.Errorf("unknown column accepted: %s", src)
		}
	}
}

func TestCompileStringNumericMismatch(t *testing.T) {
	rel := recipesRel()
	if _, err := Compile(`SELECT PACKAGE(R) AS P FROM recipes R WHERE R.name + 1 > 2 SUCH THAT COUNT(P.*) = 1`, rel); err == nil {
		t.Fatal("string arithmetic accepted")
	}
}

func TestCompileVacuousObjective(t *testing.T) {
	rel := recipesRel()
	spec := compileOK(t, `SELECT PACKAGE(R) AS P FROM recipes R REPEAT 0 SUCH THAT COUNT(P.*) = 2`, rel)
	if spec.Objective != nil {
		t.Error("feasibility-only query has an objective")
	}
	pkg, _, err := core.Direct(context.Background(), spec, ilp.Options{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if pkg.Size() != 2 {
		t.Errorf("size %d, want 2", pkg.Size())
	}
}

func TestCompileConstantFolding(t *testing.T) {
	rel := recipesRel()
	// Bounds built from constant arithmetic: (1 + 2) / 2 = 1.5.
	spec := compileOK(t, `
SELECT PACKAGE(R) AS P FROM recipes R REPEAT 0
SUCH THAT COUNT(P.*) = (1 + 2) * 1 AND SUM(P.kcal) <= (1 + 2) / 2
MAXIMIZE SUM(P.kcal)`, rel)
	found := false
	for _, c := range spec.Constraints {
		if c.Op == lp.EQ && c.RHS == 3 {
			found = true
		}
	}
	if !found {
		t.Error("constant-folded COUNT bound not found")
	}
	pkg, _, err := core.Direct(context.Background(), spec, ilp.Options{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	kcal, _ := relation.WeightedAggregate(rel, relation.Sum, "kcal", pkg.Rows, pkg.Mult)
	if kcal > 1.5+1e-9 {
		t.Errorf("SUM(kcal) = %g > 1.5", kcal)
	}
}

func TestTheorem1ILPToPaQL(t *testing.T) {
	// The reduction of Theorem 1: an ILP instance becomes a relation of
	// coefficient tuples plus a PaQL query. Verify the round trip by
	// solving both and comparing objectives.
	//
	// ILP: max 3x1 + 5x2 + 4x3
	//      s.t. 2x1 + 3x2 + 1x3 <= 5
	//           4x1 + 1x2 + 2x3 <= 11
	//           x integer >= 0
	rel := relation.New("ilprel", reltest.Schema(
		relation.Column{Name: "attr_obj", Type: relation.Float},
		relation.Column{Name: "attr_1", Type: relation.Float},
		relation.Column{Name: "attr_2", Type: relation.Float},
	))
	reltest.Append(rel, relation.F(3), relation.F(2), relation.F(4))
	reltest.Append(rel, relation.F(5), relation.F(3), relation.F(1))
	reltest.Append(rel, relation.F(4), relation.F(1), relation.F(2))

	spec := compileOK(t, `
SELECT PACKAGE(R) AS P FROM ilprel R
SUCH THAT SUM(P.attr_1) <= 5 AND SUM(P.attr_2) <= 11
MAXIMIZE SUM(P.attr_obj)`, rel)
	pkg, _, err := core.Direct(context.Background(), spec, ilp.Options{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	obj, _ := pkg.ObjectiveValue(spec)

	direct, err := ilp.SolveCtx(context.Background(), &ilp.Problem{LP: lp.Problem{
		Maximize: true,
		C:        []float64{3, 5, 4},
		A:        [][]float64{{2, 3, 1}, {4, 1, 2}},
		Op:       []lp.ConstraintOp{lp.LE, lp.LE},
		B:        []float64{5, 11},
	}}, ilp.Options{})
	if err != nil || direct.Status != ilp.Optimal {
		t.Fatalf("reference ILP failed: %v %v", err, direct.Status)
	}
	if math.Abs(obj-direct.Objective) > 1e-9 {
		t.Errorf("PaQL objective %g != ILP objective %g (Theorem 1 reduction)", obj, direct.Objective)
	}
}

func TestCompileObjectiveOverFromAlias(t *testing.T) {
	// Aggregates may range over the FROM alias when the package defaults
	// to it.
	rel := recipesRel()
	spec := compileOK(t, `SELECT PACKAGE(R) FROM recipes R REPEAT 0 SUCH THAT COUNT(R.*) = 2 MAXIMIZE SUM(R.kcal)`, rel)
	pkg, _, err := core.Direct(context.Background(), spec, ilp.Options{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if pkg.Size() != 2 {
		t.Errorf("size %d, want 2", pkg.Size())
	}
}

func TestParsedQueryStringCompilesEquivalently(t *testing.T) {
	rel := recipesRel()
	src := `
SELECT PACKAGE(R) AS P FROM recipes R REPEAT 0
WHERE R.gluten = 'free'
SUCH THAT COUNT(P.*) = 3 AND SUM(P.kcal) BETWEEN 2.0 AND 2.5
MINIMIZE SUM(P.saturated_fat)`
	q, err := paql.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	spec1, err := Translate(q, rel)
	if err != nil {
		t.Fatal(err)
	}
	spec2, err := Compile(q.String(), rel)
	if err != nil {
		t.Fatalf("compiling rendered query: %v", err)
	}
	p1, _, err1 := core.Direct(context.Background(), spec1, ilp.Options{}, nil)
	p2, _, err2 := core.Direct(context.Background(), spec2, ilp.Options{}, nil)
	if err1 != nil || err2 != nil {
		t.Fatalf("direct: %v %v", err1, err2)
	}
	o1, _ := p1.ObjectiveValue(spec1)
	o2, _ := p2.ObjectiveValue(spec2)
	if math.Abs(o1-o2) > 1e-9 {
		t.Errorf("objective drift through String(): %g vs %g", o1, o2)
	}
}

// TestBetweenIsPairedInequalities: "e BETWEEN lo AND hi" and
// "e >= lo AND e <= hi" are one query — over a column, over arithmetic,
// inside a sub-query filter and as a global predicate: the same base
// rows, the same count, and the same ILP bit for bit.
func TestBetweenIsPairedInequalities(t *testing.T) {
	rel := recipesRel()
	reltest.Append(rel, relation.S("void"), relation.S("free"), relation.F(math.NaN()),
		relation.F(0.5), relation.F(math.Inf(1)), relation.F(0))
	const tmpl = `SELECT PACKAGE(R) AS P FROM recipes R REPEAT 1 WHERE %s
SUCH THAT %s AND (SELECT COUNT(*) FROM P WHERE %s) >= 1 MINIMIZE SUM(P.saturated_fat)`
	for _, c := range []struct{ e, lo, hi string }{
		{"R.kcal", "0.4", "0.8"},
		{"R.kcal", "0.8", "0.4"}, // empty window
		{"R.carbs", "0", "1e9"},
		{"R.kcal + R.protein / 10", "0.5", "2 * 0.9"},
	} {
		between := fmt.Sprintf("%s BETWEEN %s AND %s", c.e, c.lo, c.hi)
		paired := fmt.Sprintf("%s >= %s AND %s <= %s", c.e, c.lo, c.e, c.hi)
		global := "SUM(P.kcal) BETWEEN 1 AND 3"
		globalPaired := "SUM(P.kcal) >= 1 AND SUM(P.kcal) <= 3"
		a := compileOK(t, fmt.Sprintf(tmpl, between, global, between), rel)
		b := compileOK(t, fmt.Sprintf(tmpl, paired, globalPaired, paired), rel)
		rows := a.BaseRows()
		if !slices.Equal(rows, b.BaseRows()) || a.CountBase() != b.CountBase() {
			t.Errorf("%s selects %v, %s selects %v", between, rows, paired, b.BaseRows())
		}
		pa, err := core.BuildILP(a, rel.AllRows(), nil)
		if err != nil {
			t.Fatal(err)
		}
		pb, err := core.BuildILP(b, rel.AllRows(), nil)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(pa.LP.B, pb.LP.B) || !slices.Equal(pa.LP.Op, pb.LP.Op) || len(pa.LP.A) != len(pb.LP.A) {
			t.Fatalf("%s: rows %v %v vs %v %v", between, pa.LP.Op, pa.LP.B, pb.LP.Op, pb.LP.B)
		}
		for i := range pa.LP.A {
			for j := range pa.LP.A[i] {
				if math.Float64bits(pa.LP.A[i][j]) != math.Float64bits(pb.LP.A[i][j]) {
					t.Errorf("%s: A[%d][%d] = %v, paired form %v", between, i, j, pa.LP.A[i][j], pb.LP.A[i][j])
				}
			}
		}
	}
}
