package sketchrefine

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/core"
	"repro/internal/ilp"
	"repro/internal/lp"
	"repro/internal/partition"
	"repro/internal/relation"
	"repro/internal/reltest"
	"repro/internal/translate"
)

// genRel builds a random relation with positive attributes a, b and a
// category column.
func genRel(n int, seed int64) *relation.Relation {
	rng := rand.New(rand.NewSource(seed))
	r := relation.New("items", reltest.Schema(
		relation.Column{Name: "a", Type: relation.Float},
		relation.Column{Name: "b", Type: relation.Float},
		relation.Column{Name: "cat", Type: relation.String},
	))
	cats := []string{"x", "y", "z"}
	for i := 0; i < n; i++ {
		reltest.Append(r,
			relation.F(1+rng.Float64()*9),
			relation.F(1+rng.Float64()*9),
			relation.S(cats[rng.Intn(len(cats))]),
		)
	}
	return r
}

func buildPart(t testing.TB, rel *relation.Relation, tau int, omega float64) *partition.Partitioning {
	t.Helper()
	p, err := partition.Build(rel, partition.Options{
		Attrs:         []string{"a", "b"},
		SizeThreshold: tau,
		RadiusLimit:   omega,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := p.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	return p
}

// cardSpec: exactly card tuples, SUM(a) ≤ budget, maximize SUM(b).
func cardSpec(rel *relation.Relation, card int, budget float64) *core.Spec {
	return &core.Spec{
		Rel:    rel,
		Repeat: 0,
		Constraints: []core.Constraint{
			{Coef: core.UnitCoef{}, Op: lp.EQ, RHS: float64(card), Desc: "COUNT(P.*) = card"},
			{Coef: core.AttrCoef{Attr: "a"}, Op: lp.LE, RHS: budget, Desc: "SUM(P.a) <= budget"},
		},
		Objective: &core.Objective{Maximize: true, Coef: core.AttrCoef{Attr: "b"}, Desc: "SUM(P.b)"},
	}
}

func TestSketchRefineFeasiblePackage(t *testing.T) {
	rel := genRel(500, 1)
	part := buildPart(t, rel, 60, 0)
	spec := cardSpec(rel, 10, 60)
	pkg, stats, err := EvaluateCtx(context.Background(), spec, part, Options{})
	if err != nil {
		t.Fatalf("Evaluate: %v", err)
	}
	ok, err := pkg.IsFeasible(spec)
	if err != nil || !ok {
		viol, _ := pkg.Check(spec)
		t.Fatalf("SketchRefine package infeasible: %v (err %v)", viol, err)
	}
	if pkg.Size() != 10 {
		t.Errorf("size %d, want 10", pkg.Size())
	}
	if stats.Subproblems < 2 {
		t.Errorf("expected sketch + refine subproblems, got %d", stats.Subproblems)
	}
	// SketchRefine's largest subproblem must be smaller than DIRECT's.
	_, dStats, err := core.Direct(context.Background(), spec, ilp.Options{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Vars >= dStats.Vars {
		t.Errorf("largest subproblem %d vars, DIRECT %d — no decomposition happened", stats.Vars, dStats.Vars)
	}
}

func TestSketchRefineObjectiveCloseToDirect(t *testing.T) {
	rel := genRel(400, 2)
	part := buildPart(t, rel, 50, 0)
	spec := cardSpec(rel, 8, 50)
	pkg, _, err := EvaluateCtx(context.Background(), spec, part, Options{})
	if err != nil {
		t.Fatal(err)
	}
	dPkg, _, err := core.Direct(context.Background(), spec, ilp.Options{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	objS, _ := pkg.ObjectiveValue(spec)
	objD, _ := dPkg.ObjectiveValue(spec)
	ratio := objD / objS // maximization: ratio ≥ 1 typically
	if ratio > 2 {
		t.Errorf("approximation ratio %g too large (objS=%g objD=%g)", ratio, objS, objD)
	}
}

func TestSketchRefineMinimization(t *testing.T) {
	rel := genRel(300, 3)
	part := buildPart(t, rel, 40, 0)
	spec := &core.Spec{
		Rel:    rel,
		Repeat: 0,
		Constraints: []core.Constraint{
			{Coef: core.UnitCoef{}, Op: lp.EQ, RHS: 6},
			{Coef: core.AttrCoef{Attr: "b"}, Op: lp.GE, RHS: 20},
		},
		Objective: &core.Objective{Maximize: false, Coef: core.AttrCoef{Attr: "a"}},
	}
	pkg, _, err := EvaluateCtx(context.Background(), spec, part, Options{})
	if err != nil {
		t.Fatal(err)
	}
	ok, _ := pkg.IsFeasible(spec)
	if !ok {
		t.Fatal("minimization package infeasible")
	}
	dPkg, _, err := core.Direct(context.Background(), spec, ilp.Options{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	objS, _ := pkg.ObjectiveValue(spec)
	objD, _ := dPkg.ObjectiveValue(spec)
	if objS < objD-1e-9 {
		t.Errorf("SketchRefine beat the exact optimum: %g < %g", objS, objD)
	}
	if objS/objD > 2.5 {
		t.Errorf("minimization ratio %g too large", objS/objD)
	}
}

func TestSketchRefineWithBasePredicate(t *testing.T) {
	rel := genRel(400, 4)
	part := buildPart(t, rel, 50, 0)
	spec := cardSpec(rel, 5, 40)
	spec.Base = relation.NewCompare("cat", relation.EQ, relation.S("x"))
	pkg, _, err := EvaluateCtx(context.Background(), spec, part, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range pkg.Rows {
		if rel.Str(r, 2) != "x" {
			t.Errorf("tuple %d violates base predicate", r)
		}
	}
	ok, _ := pkg.IsFeasible(spec)
	if !ok {
		t.Fatal("package with base predicate infeasible")
	}
}

func TestSketchRefineRepeat(t *testing.T) {
	rel := genRel(100, 5)
	part := buildPart(t, rel, 20, 0)
	spec := cardSpec(rel, 12, 80)
	spec.Repeat = 2 // each tuple at most 3 times
	pkg, _, err := EvaluateCtx(context.Background(), spec, part, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for k := range pkg.Rows {
		if pkg.Mult[k] > 3 {
			t.Errorf("multiplicity %d violates REPEAT 2", pkg.Mult[k])
		}
	}
	if pkg.Size() != 12 {
		t.Errorf("size %d, want 12", pkg.Size())
	}
}

func TestSketchRefineInfeasibleQuery(t *testing.T) {
	rel := genRel(200, 6)
	part := buildPart(t, rel, 30, 0)
	// SUM(a) <= 5 with 10 tuples each having a >= 1 is impossible.
	spec := cardSpec(rel, 10, 5)
	_, _, err := EvaluateCtx(context.Background(), spec, part, Options{})
	if err == nil {
		t.Fatal("infeasible query produced a package")
	}
	if !errors.Is(err, ErrFalseInfeasible) && !errors.Is(err, core.ErrInfeasible) {
		t.Fatalf("err = %v, want infeasibility", err)
	}
}

func TestSketchRefineWrongPartitioning(t *testing.T) {
	rel1 := genRel(50, 7)
	rel2 := genRel(50, 8)
	part := buildPart(t, rel1, 10, 0)
	spec := cardSpec(rel2, 3, 20)
	if _, _, err := EvaluateCtx(context.Background(), spec, part, Options{}); err == nil {
		t.Fatal("mismatched partitioning accepted")
	}
}

func TestSketchRefineRestrictedPartitioning(t *testing.T) {
	rel := genRel(600, 9)
	full := buildPart(t, rel, 80, 0)
	// Use only 50% of the data, like the scalability experiments.
	var rows []int
	for i := 0; i < rel.Len(); i += 2 {
		rows = append(rows, i)
	}
	part := full.Restrict(rows)
	spec := cardSpec(rel, 7, 45)
	pkg, _, err := EvaluateCtx(context.Background(), spec, part, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Every chosen tuple must come from the restricted subset.
	inSubset := make(map[int]bool, len(rows))
	for _, r := range rows {
		inSubset[r] = true
	}
	for _, r := range pkg.Rows {
		if !inSubset[r] {
			t.Errorf("tuple %d outside the restricted subset", r)
		}
	}
	ok, _ := pkg.IsFeasible(spec)
	if !ok {
		t.Fatal("restricted package infeasible")
	}
}

func TestSketchRefinePaQLEndToEnd(t *testing.T) {
	rel := genRel(300, 10)
	part := buildPart(t, rel, 40, 0)
	spec, err := translate.Compile(`
SELECT PACKAGE(R) AS P FROM items R REPEAT 0
WHERE R.cat <> 'z'
SUCH THAT COUNT(P.*) = 6 AND SUM(P.a) BETWEEN 10 AND 40 AND AVG(P.b) >= 3
MAXIMIZE SUM(P.b)`, rel)
	if err != nil {
		t.Fatal(err)
	}
	pkg, _, err := EvaluateCtx(context.Background(), spec, part, Options{})
	if err != nil {
		t.Fatal(err)
	}
	ok, err := pkg.IsFeasible(spec)
	if err != nil || !ok {
		viol, _ := pkg.Check(spec)
		t.Fatalf("PaQL end-to-end package infeasible: %v (err %v)", viol, err)
	}
}

func TestSketchRefineShuffledOrder(t *testing.T) {
	rel := genRel(200, 12)
	part := buildPart(t, rel, 25, 0)
	spec := cardSpec(rel, 6, 35)
	for seed := int64(1); seed < 4; seed++ {
		pkg, _, err := EvaluateCtx(context.Background(), spec, part, Options{
			Seed: seed,
		})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if ok, _ := pkg.IsFeasible(spec); !ok {
			t.Fatalf("seed %d: infeasible package", seed)
		}
	}
}

// TestApproximationBoundTheorem3 verifies the (1±ε)⁶ guarantee: with a
// radius limit from Equation 1, the SketchRefine objective is within
// (1−ε)⁶ of DIRECT for maximization queries.
func TestApproximationBoundTheorem3(t *testing.T) {
	for seed := int64(0); seed < 5; seed++ {
		rel := genRel(150, 100+seed)
		eps := 0.3
		omega, err := partition.RadiusForEpsilon(rel, []string{"a", "b"}, eps, true)
		if err != nil || omega <= 0 {
			t.Fatalf("omega: %g err %v", omega, err)
		}
		part, err := partition.Build(rel, partition.Options{
			Attrs:         []string{"a", "b"},
			SizeThreshold: 30,
			RadiusLimit:   omega,
		})
		if err != nil {
			t.Fatal(err)
		}
		spec := cardSpec(rel, 5, 35)
		pkg, _, err := EvaluateCtx(context.Background(), spec, part, Options{})
		if err != nil {
			// False infeasibility is allowed by the theorem (it only
			// bounds the objective of produced packages).
			continue
		}
		dPkg, _, err := core.Direct(context.Background(), spec, ilp.Options{}, nil)
		if err != nil {
			t.Fatal(err)
		}
		objS, _ := pkg.ObjectiveValue(spec)
		objD, _ := dPkg.ObjectiveValue(spec)
		bound := math.Pow(1-eps, 6) * objD
		if objS < bound-1e-9 {
			t.Errorf("seed %d: objective %g below (1−ε)⁶·OPT = %g", seed, objS, bound)
		}
	}
}

// TestFalseInfeasibilityRare (Theorem 4): across many random feasible
// queries, SketchRefine with the hybrid sketch finds packages in the
// overwhelming majority of cases.
func TestFalseInfeasibilityRare(t *testing.T) {
	rel := genRel(300, 200)
	part := buildPart(t, rel, 40, 0)
	failures, trials := 0, 30
	rng := rand.New(rand.NewSource(42))
	for i := 0; i < trials; i++ {
		// Random feasible query: pick a random target package and build
		// a query satisfied by it.
		card := 3 + rng.Intn(6)
		rows := rng.Perm(rel.Len())[:card]
		sumA := 0.0
		for _, r := range rows {
			sumA += rel.Float(r, 0)
		}
		spec := cardSpec(rel, card, sumA+1) // the target package is feasible
		_, _, err := EvaluateCtx(context.Background(), spec, part, Options{})
		if err != nil {
			failures++
		}
	}
	if failures > trials/10 {
		t.Errorf("false infeasibility rate %d/%d exceeds 10%%", failures, trials)
	}
}

// Property: whenever SketchRefine returns a package, it is feasible.
func TestQuickAlwaysFeasible(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		rel := genRel(60+rng.Intn(120), seed)
		tau := 10 + rng.Intn(30)
		part, err := partition.Build(rel, partition.Options{
			Attrs:         []string{"a", "b"},
			SizeThreshold: tau,
		})
		if err != nil {
			return false
		}
		card := 2 + rng.Intn(6)
		budget := float64(card) * (2 + rng.Float64()*8)
		spec := cardSpec(rel, card, budget)
		if rng.Intn(2) == 0 {
			spec.Objective.Maximize = false
		}
		pkg, _, err := EvaluateCtx(context.Background(), spec, part, Options{})
		if err != nil {
			// Infeasibility reports are acceptable; wrong packages are not.
			return errors.Is(err, ErrFalseInfeasible) || errors.Is(err, core.ErrInfeasible)
		}
		ok, err := pkg.IsFeasible(spec)
		return err == nil && ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}
