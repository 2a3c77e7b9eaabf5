package core

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/ilp"
	"repro/internal/lp"
	"repro/internal/relation"
	"repro/internal/reltest"
)

// recipes builds the running-example relation of the paper.
func recipes() *relation.Relation {
	r := relation.New("recipes", reltest.Schema(
		relation.Column{Name: "name", Type: relation.String},
		relation.Column{Name: "gluten", Type: relation.String},
		relation.Column{Name: "kcal", Type: relation.Float},
		relation.Column{Name: "saturated_fat", Type: relation.Float},
		relation.Column{Name: "carbs", Type: relation.Float},
	))
	rows := []struct {
		name, gluten    string
		kcal, fat, carb float64
	}{
		{"pasta", "full", 0.9, 4.0, 40},
		{"salad", "free", 0.3, 0.5, 5},
		{"steak", "free", 0.8, 7.0, 0},
		{"rice", "free", 0.7, 0.2, 45},
		{"soup", "free", 0.5, 1.0, 10},
		{"bread", "full", 0.4, 0.8, 30},
		{"tofu", "free", 0.6, 0.9, 3},
		{"fish", "free", 0.9, 1.5, 0},
	}
	for _, x := range rows {
		reltest.Append(r, relation.S(x.name), relation.S(x.gluten), relation.F(x.kcal), relation.F(x.fat), relation.F(x.carb))
	}
	return r
}

// mealSpec is the paper's example query Q: three gluten-free meals,
// total kcal in [2.0, 2.5], minimizing saturated fat.
func mealSpec(rel *relation.Relation) *Spec {
	return &Spec{
		Rel:    rel,
		Repeat: 0,
		Base:   relation.NewCompare("gluten", relation.EQ, relation.S("free")),
		Constraints: []Constraint{
			{Coef: UnitCoef{}, Op: lp.EQ, RHS: 3, Desc: "COUNT(P.*) = 3"},
			{Coef: AttrCoef{Attr: "kcal"}, Op: lp.GE, RHS: 2.0, Desc: "SUM(P.kcal) >= 2.0"},
			{Coef: AttrCoef{Attr: "kcal"}, Op: lp.LE, RHS: 2.5, Desc: "SUM(P.kcal) <= 2.5"},
		},
		Objective: &Objective{Maximize: false, Coef: AttrCoef{Attr: "saturated_fat"}, Desc: "SUM(P.saturated_fat)"},
	}
}

func TestDirectMealPlanner(t *testing.T) {
	rel := recipes()
	spec := mealSpec(rel)
	pkg, stats, err := Direct(context.Background(), spec, ilp.Options{}, nil)
	if err != nil {
		t.Fatalf("Direct: %v", err)
	}
	if pkg.Size() != 3 {
		t.Fatalf("package size %d, want 3", pkg.Size())
	}
	ok, err := pkg.IsFeasible(spec)
	if err != nil || !ok {
		viol, _ := pkg.Check(spec)
		t.Fatalf("returned package infeasible: %v (err %v)", viol, err)
	}
	obj, err := pkg.ObjectiveValue(spec)
	if err != nil {
		t.Fatal(err)
	}
	// Best gluten-free triple with kcal in [2, 2.5] minimizing fat:
	// rice(0.7, 0.2) + soup(0.5, 1.0) + fish(0.9, 1.5) = kcal 2.1, fat 2.7?
	// Check against brute force below; here just assert a known optimum.
	want := bruteForceObjective(t, spec)
	if math.Abs(obj-want) > 1e-9 {
		t.Errorf("objective %g, want brute-force optimum %g", obj, want)
	}
	if stats.Vars != 6 { // six gluten-free recipes
		t.Errorf("vars = %d, want 6 (base relation eliminated two)", stats.Vars)
	}
}

// bruteForceObjective enumerates subsets (REPEAT 0) of the base relation.
func bruteForceObjective(t *testing.T, spec *Spec) float64 {
	t.Helper()
	rows := spec.BaseRows()
	n := len(rows)
	if n > 20 {
		t.Fatal("brute force too large")
	}
	best := math.NaN()
	for mask := 0; mask < 1<<n; mask++ {
		var pkgRows, pkgMult []int
		for j := 0; j < n; j++ {
			if mask&(1<<j) != 0 {
				pkgRows = append(pkgRows, rows[j])
				pkgMult = append(pkgMult, 1)
			}
		}
		pkg, err := NewPackage(spec.Rel, pkgRows, pkgMult)
		if err != nil {
			t.Fatal(err)
		}
		feas, err := pkg.IsFeasible(spec)
		if err != nil {
			t.Fatal(err)
		}
		if !feas {
			continue
		}
		obj, err := pkg.ObjectiveValue(spec)
		if err != nil {
			t.Fatal(err)
		}
		if math.IsNaN(best) || (spec.Objective != nil && spec.Objective.Maximize && obj > best) ||
			(spec.Objective != nil && !spec.Objective.Maximize && obj < best) {
			best = obj
		}
	}
	return best
}

func TestDirectInfeasible(t *testing.T) {
	rel := recipes()
	spec := mealSpec(rel)
	// Demand an impossible calorie total.
	spec.Constraints[1].RHS = 100
	_, _, err := Direct(context.Background(), spec, ilp.Options{}, nil)
	if !errors.Is(err, ErrInfeasible) {
		t.Fatalf("err = %v, want ErrInfeasible", err)
	}
}

func TestDirectUnbounded(t *testing.T) {
	rel := recipes()
	spec := &Spec{
		Rel:    rel,
		Repeat: -1, // unlimited repetition
		Constraints: []Constraint{
			{Coef: UnitCoef{}, Op: lp.GE, RHS: 1, Desc: "COUNT >= 1"},
		},
		Objective: &Objective{Maximize: true, Coef: AttrCoef{Attr: "kcal"}},
	}
	_, _, err := Direct(context.Background(), spec, ilp.Options{}, nil)
	if err == nil || !strings.Contains(err.Error(), "unbounded") {
		t.Fatalf("err = %v, want unbounded", err)
	}
}

func TestDirectRepeat(t *testing.T) {
	rel := recipes()
	// REPEAT 1: each tuple at most twice. Maximize kcal with exactly 4
	// tuples: two fish + two pasta = 3.6.
	spec := &Spec{
		Rel:    rel,
		Repeat: 1,
		Constraints: []Constraint{
			{Coef: UnitCoef{}, Op: lp.EQ, RHS: 4, Desc: "COUNT = 4"},
		},
		Objective: &Objective{Maximize: true, Coef: AttrCoef{Attr: "kcal"}},
	}
	pkg, _, err := Direct(context.Background(), spec, ilp.Options{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	obj, _ := pkg.ObjectiveValue(spec)
	if math.Abs(obj-3.6) > 1e-9 {
		t.Errorf("objective %g, want 3.6 (2×0.9 + 2×0.9)", obj)
	}
	for k := range pkg.Rows {
		if pkg.Mult[k] > 2 {
			t.Errorf("row %d multiplicity %d exceeds REPEAT 1", pkg.Rows[k], pkg.Mult[k])
		}
	}
}

func TestDirectConditionalCount(t *testing.T) {
	rel := recipes()
	// At least 2 tuples with carbs > 0, exactly 3 total, maximize kcal.
	spec := &Spec{
		Rel:    rel,
		Repeat: 0,
		Constraints: []Constraint{
			{Coef: UnitCoef{}, Op: lp.EQ, RHS: 3},
			{
				Coef: CondCoef{Pred: relation.NewCompare("carbs", relation.GT, relation.F(0)), Inner: UnitCoef{}},
				Op:   lp.GE, RHS: 2,
				Desc: "(SELECT COUNT(*) FROM P WHERE carbs > 0) >= 2",
			},
		},
		Objective: &Objective{Maximize: true, Coef: AttrCoef{Attr: "kcal"}},
	}
	pkg, _, err := Direct(context.Background(), spec, ilp.Options{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	carby := 0
	for _, r := range pkg.Rows {
		if rel.Float(r, 4) > 0 {
			carby++
		}
	}
	if carby < 2 {
		t.Errorf("package has %d carby tuples, want >= 2", carby)
	}
	obj, _ := pkg.ObjectiveValue(spec)
	want := bruteForceObjective(t, spec)
	if math.Abs(obj-want) > 1e-9 {
		t.Errorf("objective %g, want %g", obj, want)
	}
}

func TestDirectAvgConstraintViaShiftedCoef(t *testing.T) {
	rel := recipes()
	// AVG(P.kcal) <= 0.6 via Σ(kcal − 0.6)x ≤ 0; exactly 3 tuples,
	// maximize total carbs.
	spec := &Spec{
		Rel:    rel,
		Repeat: 0,
		Constraints: []Constraint{
			{Coef: UnitCoef{}, Op: lp.EQ, RHS: 3},
			{Coef: ShiftedAttrCoef{Attr: "kcal", Shift: -0.6}, Op: lp.LE, RHS: 0, Desc: "AVG(P.kcal) <= 0.6"},
		},
		Objective: &Objective{Maximize: true, Coef: AttrCoef{Attr: "carbs"}},
	}
	pkg, _, err := Direct(context.Background(), spec, ilp.Options{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	avg, err := relation.WeightedAggregate(rel, relation.Avg, "kcal", pkg.Rows, pkg.Mult)
	if err != nil {
		t.Fatal(err)
	}
	if avg > 0.6+1e-9 {
		t.Errorf("AVG(kcal) = %g, want <= 0.6", avg)
	}
	obj, _ := pkg.ObjectiveValue(spec)
	want := bruteForceObjective(t, spec)
	if math.Abs(obj-want) > 1e-9 {
		t.Errorf("objective %g, want %g", obj, want)
	}
}

func TestDirectRestrictions(t *testing.T) {
	rel := recipes()
	// MIN(P.kcal) >= 0.5 as a tuple restriction: exactly 3, max carbs.
	spec := &Spec{
		Rel:          rel,
		Repeat:       0,
		Restrictions: []relation.Predicate{relation.NewCompare("kcal", relation.GE, relation.F(0.5))},
		Constraints: []Constraint{
			{Coef: UnitCoef{}, Op: lp.EQ, RHS: 3},
		},
		Objective: &Objective{Maximize: true, Coef: AttrCoef{Attr: "carbs"}},
	}
	pkg, _, err := Direct(context.Background(), spec, ilp.Options{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range pkg.Rows {
		if rel.Float(r, 2) < 0.5 {
			t.Errorf("tuple %d kcal %g violates MIN restriction", r, rel.Float(r, 2))
		}
	}
}

// TestCountBaseMatchesBaseRows: CountBase is len(BaseRows()) for every
// kind of filter, tombstones included, on a head relation and on a
// snapshot, and it allocates nothing per row to get there.
func TestCountBaseMatchesBaseRows(t *testing.T) {
	rel := recipes()
	if err := rel.Delete(2); err != nil { // steak: gluten-free, kcal 0.8
		t.Fatal(err)
	}
	free := relation.NewCompare("gluten", relation.EQ, relation.S("free"))
	minKcal := relation.NewCompare("kcal", relation.GE, relation.F(0.5))
	maxFat := relation.NewCompare("saturated_fat", relation.LE, relation.F(1.0))
	for name, spec := range map[string]*Spec{
		"no filter":    {},
		"where":        {Base: free},
		"restriction":  {Restrictions: []relation.Predicate{minKcal}},
		"where + two":  {Base: free, Restrictions: []relation.Predicate{minKcal, maxFat}},
		"none passes":  {Base: relation.NewCompare("kcal", relation.GT, relation.F(9))},
		"unknown attr": {Restrictions: []relation.Predicate{relation.NewCompare("nope", relation.GT, relation.F(0))}},
	} {
		for _, r := range []*relation.Relation{rel, rel.Snapshot()} {
			spec.Rel = r
			if got, want := spec.CountBase(), len(spec.BaseRows()); got != want {
				t.Errorf("%s: CountBase = %d, BaseRows has %d", name, got, want)
			}
			// The conjunction, its bound form (a closure or two per
			// predicate) and one block of row ids; nothing per row —
			// TestFilteredCountBaseAllocsIndependentOfRows holds that.
			if allocs := testing.AllocsPerRun(10, func() { spec.CountBase() }); allocs > 10 {
				t.Errorf("%s: CountBase allocates %.0f objects a call", name, allocs)
			}
		}
	}
}

func TestDirectFeasibilityOnly(t *testing.T) {
	rel := recipes()
	spec := &Spec{
		Rel:    rel,
		Repeat: 0,
		Constraints: []Constraint{
			{Coef: UnitCoef{}, Op: lp.EQ, RHS: 2},
			{Coef: AttrCoef{Attr: "kcal"}, Op: lp.GE, RHS: 1.7},
		},
	}
	pkg, _, err := Direct(context.Background(), spec, ilp.Options{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	ok, err := pkg.IsFeasible(spec)
	if err != nil || !ok {
		t.Fatalf("feasibility-only package infeasible (err %v)", err)
	}
	if v, _ := pkg.ObjectiveValue(spec); v != 0 {
		t.Errorf("objective of feasibility-only spec = %g, want 0", v)
	}
}

func TestDirectResourceLimit(t *testing.T) {
	// A hard subset-sum-like instance with a 1-node budget.
	rng := rand.New(rand.NewSource(3))
	rel := relation.New("t", reltest.Schema(relation.Column{Name: "v", Type: relation.Float}))
	for i := 0; i < 40; i++ {
		reltest.Append(rel, relation.F(1+rng.Float64()))
	}
	spec := &Spec{
		Rel:    rel,
		Repeat: 0,
		Constraints: []Constraint{
			{Coef: AttrCoef{Attr: "v"}, Op: lp.LE, RHS: 7.5},
		},
		Objective: &Objective{Maximize: true, Coef: AttrCoef{Attr: "v"}},
	}
	_, _, err := Direct(context.Background(), spec, ilp.Options{MaxNodes: 1}, nil)
	if err == nil || !strings.Contains(err.Error(), "resource limit") {
		t.Fatalf("err = %v, want resource limit", err)
	}
}

func TestPackageAccounting(t *testing.T) {
	rel := recipes()
	pkg, err := NewPackage(rel, []int{1, 2, 3}, []int{2, 0, 1})
	if err != nil {
		t.Fatal(err)
	}
	if pkg.Size() != 3 || pkg.Distinct() != 2 {
		t.Errorf("size %d distinct %d, want 3 and 2 (zero-mult dropped)", pkg.Size(), pkg.Distinct())
	}
	if _, err := NewPackage(rel, []int{0}, []int{-1}); err == nil {
		t.Error("negative multiplicity accepted")
	}
	if _, err := NewPackage(rel, []int{99}, []int{1}); err == nil {
		t.Error("out-of-range row accepted")
	}
	if _, err := NewPackage(rel, []int{0, 1}, []int{1}); err == nil {
		t.Error("mismatched lengths accepted")
	}
}

func TestPackageMaterialize(t *testing.T) {
	rel := recipes()
	pkg, _ := NewPackage(rel, []int{3, 1}, []int{2, 1})
	mat := pkg.Materialize("answer")
	if mat.Len() != 3 {
		t.Fatalf("materialized %d rows, want 3", mat.Len())
	}
	if !mat.Schema().Equal(rel.Schema()) {
		t.Error("materialized schema differs from input")
	}
	// Sorted by row index: salad then rice twice.
	if mat.Str(0, 0) != "salad" || mat.Str(1, 0) != "rice" || mat.Str(2, 0) != "rice" {
		t.Errorf("materialized rows wrong: %s %s %s", mat.Str(0, 0), mat.Str(1, 0), mat.Str(2, 0))
	}
}

func TestSpecQueryAttrs(t *testing.T) {
	rel := recipes()
	spec := mealSpec(rel)
	attrs := spec.QueryAttrs()
	want := map[string]bool{"kcal": true, "saturated_fat": true}
	if len(attrs) != len(want) {
		t.Fatalf("QueryAttrs = %v, want kcal + saturated_fat", attrs)
	}
	for _, a := range attrs {
		if !want[a] {
			t.Errorf("unexpected query attr %q", a)
		}
	}
}

func TestSpecValidate(t *testing.T) {
	rel := recipes()
	bad := &Spec{
		Rel: rel,
		Constraints: []Constraint{
			{Coef: AttrCoef{Attr: "nope"}, Op: lp.LE, RHS: 1},
		},
	}
	if err := bad.Validate(); err == nil {
		t.Error("unknown attribute accepted")
	}
	badObj := &Spec{
		Rel:       rel,
		Objective: &Objective{Coef: AttrCoef{Attr: "gluten"}},
	}
	if err := badObj.Validate(); err == nil {
		t.Error("non-numeric objective attribute accepted")
	}
	if err := (&Spec{}).Validate(); err == nil {
		t.Error("nil relation accepted")
	}
	if err := (&Spec{Rel: rel, Repeat: -2}).Validate(); err == nil {
		t.Error("invalid repeat accepted")
	}
}

func TestCoefComposition(t *testing.T) {
	rel := recipes()
	// 2*kcal + COUNT gated on gluten-free.
	coef := SumCoef{Parts: []Coef{
		ScaledCoef{W: 2, Inner: AttrCoef{Attr: "kcal"}},
		CondCoef{Pred: relation.NewCompare("gluten", relation.EQ, relation.S("free")), Inner: UnitCoef{}},
	}}
	got, err := coefRow(coef, rel, nil, []int{0, 1})
	if err != nil {
		t.Fatal(err)
	}
	// pasta: 2*0.9 + 0 = 1.8; salad: 2*0.3 + 1 = 1.6.
	if math.Abs(got[0]-1.8) > 1e-12 {
		t.Errorf("coef(pasta) = %g, want 1.8", got[0])
	}
	if math.Abs(got[1]-1.6) > 1e-12 {
		t.Errorf("coef(salad) = %g, want 1.6", got[1])
	}
	attrs := coef.Attrs(nil)
	if len(attrs) != 1 || attrs[0] != "kcal" {
		t.Errorf("Attrs = %v, want [kcal]", attrs)
	}
	if coef.String() == "" {
		t.Error("empty coef string")
	}
}

func TestCoefBindErrors(t *testing.T) {
	rel := recipes()
	cases := []Coef{
		AttrCoef{Attr: "missing"},
		AttrCoef{Attr: "gluten"},
		ShiftedAttrCoef{Attr: "missing"},
		ShiftedAttrCoef{Attr: "name"},
		ScaledCoef{W: 1, Inner: AttrCoef{Attr: "missing"}},
		SumCoef{Parts: []Coef{UnitCoef{}, AttrCoef{Attr: "missing"}}},
		CondCoef{Pred: relation.True{}, Inner: AttrCoef{Attr: "missing"}},
	}
	for i, c := range cases {
		if _, err := coefRow(c, rel, nil, nil); err == nil {
			t.Errorf("case %d (%s): bad coef evaluated successfully", i, c)
		}
	}
}

// Property: DIRECT matches brute-force enumeration on random small specs.
func TestQuickDirectMatchesBruteForce(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		rel := relation.New("t", reltest.Schema(
			relation.Column{Name: "a", Type: relation.Float},
			relation.Column{Name: "b", Type: relation.Float},
		))
		n := 4 + rng.Intn(6)
		for i := 0; i < n; i++ {
			reltest.Append(rel, relation.F(rng.Float64()*10), relation.F(rng.NormFloat64()*5))
		}
		card := 1 + rng.Intn(3)
		spec := &Spec{
			Rel:    rel,
			Repeat: 0,
			Constraints: []Constraint{
				{Coef: UnitCoef{}, Op: lp.EQ, RHS: float64(card)},
				{Coef: AttrCoef{Attr: "a"}, Op: lp.LE, RHS: rng.Float64() * 10 * float64(card)},
			},
			Objective: &Objective{Maximize: rng.Intn(2) == 0, Coef: AttrCoef{Attr: "b"}},
		}
		pkg, _, err := Direct(context.Background(), spec, ilp.Options{}, nil)
		rows := spec.BaseRows()
		// Brute force over subsets.
		best := math.NaN()
		for mask := 0; mask < 1<<len(rows); mask++ {
			var pr, pm []int
			for j := range rows {
				if mask&(1<<j) != 0 {
					pr = append(pr, rows[j])
					pm = append(pm, 1)
				}
			}
			cand, _ := NewPackage(rel, pr, pm)
			if ok, _ := cand.IsFeasible(spec); !ok {
				continue
			}
			obj, _ := cand.ObjectiveValue(spec)
			if math.IsNaN(best) || (spec.Objective.Maximize && obj > best) || (!spec.Objective.Maximize && obj < best) {
				best = obj
			}
		}
		if math.IsNaN(best) {
			return errors.Is(err, ErrInfeasible)
		}
		if err != nil {
			return false
		}
		obj, err := pkg.ObjectiveValue(spec)
		if err != nil {
			return false
		}
		return math.Abs(obj-best) < 1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}
