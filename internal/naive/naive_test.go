package naive

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/core"
	"repro/internal/ilp"
	"repro/internal/lp"
	"repro/internal/relation"
	"repro/internal/reltest"
)

func itemsRel(n int, seed int64) *relation.Relation {
	rng := rand.New(rand.NewSource(seed))
	r := relation.New("items", reltest.Schema(
		relation.Column{Name: "a", Type: relation.Float},
		relation.Column{Name: "b", Type: relation.Float},
	))
	for i := 0; i < n; i++ {
		reltest.Append(r, relation.F(1+rng.Float64()*9), relation.F(rng.Float64()*10))
	}
	return r
}

func spec(rel *relation.Relation, card int, budget float64, maximize bool) *core.Spec {
	return &core.Spec{
		Rel:    rel,
		Repeat: 0,
		Constraints: []core.Constraint{
			{Coef: core.UnitCoef{}, Op: lp.EQ, RHS: float64(card)},
			{Coef: core.AttrCoef{Attr: "a"}, Op: lp.LE, RHS: budget},
		},
		Objective: &core.Objective{Maximize: maximize, Coef: core.AttrCoef{Attr: "b"}},
	}
}

func TestNaiveMatchesDirect(t *testing.T) {
	rel := itemsRel(25, 1)
	for _, card := range []int{1, 2, 3} {
		for _, maximize := range []bool{true, false} {
			s := spec(rel, card, float64(card)*6, maximize)
			nv, _, err := Solve(context.Background(), s, Options{})
			if err != nil {
				t.Fatalf("card %d: naive: %v", card, err)
			}
			dPkg, _, err := core.Direct(context.Background(), s, ilp.Options{}, nil)
			if err != nil {
				t.Fatalf("card %d: direct: %v", card, err)
			}
			nObj, _ := nv.ObjectiveValue(s)
			dObj, _ := dPkg.ObjectiveValue(s)
			if math.Abs(nObj-dObj) > 1e-6 {
				t.Errorf("card %d max=%v: naive %g != direct %g", card, maximize, nObj, dObj)
			}
			ok, _ := nv.IsFeasible(s)
			if !ok {
				t.Errorf("card %d: naive package infeasible", card)
			}
		}
	}
}

func TestNaiveInfeasible(t *testing.T) {
	rel := itemsRel(10, 2)
	s := spec(rel, 3, 0.5, true) // three tuples of a ≥ 1 cannot sum ≤ 0.5
	_, _, err := Solve(context.Background(), s, Options{})
	if !errors.Is(err, core.ErrInfeasible) {
		t.Fatalf("err = %v, want infeasible", err)
	}
}

func TestNaiveUnsupportedSpecs(t *testing.T) {
	rel := itemsRel(10, 3)
	noCard := &core.Spec{
		Rel:    rel,
		Repeat: 0,
		Constraints: []core.Constraint{
			{Coef: core.AttrCoef{Attr: "a"}, Op: lp.LE, RHS: 5},
		},
	}
	if _, _, err := Solve(context.Background(), noCard, Options{}); !errors.Is(err, ErrUnsupported) {
		t.Errorf("no-cardinality spec: err = %v, want unsupported", err)
	}
	withRepeat := spec(rel, 2, 10, true)
	withRepeat.Repeat = 1
	if _, _, err := Solve(context.Background(), withRepeat, Options{}); !errors.Is(err, ErrUnsupported) {
		t.Errorf("repeat spec: err = %v, want unsupported", err)
	}
}

func TestNaiveTimeout(t *testing.T) {
	rel := itemsRel(200, 4)
	s := spec(rel, 5, 30, true)
	// C(200, 5) candidates do not fit in the budget: the enumeration
	// stops, with the best package so far (Truncated) or with none.
	pkg, stats, err := Solve(context.Background(), s, Options{Timeout: time.Millisecond})
	switch {
	case errors.Is(err, ErrTimeout):
		if pkg != nil {
			t.Fatal("a timeout with no package returned one")
		}
	case err != nil:
		t.Fatalf("err = %v, want timeout or a truncated package", err)
	case !stats.Truncated:
		t.Fatal("the enumeration ran past its budget to the end")
	}
}

func TestNaiveBasePredicate(t *testing.T) {
	rel := itemsRel(20, 5)
	s := spec(rel, 2, 12, true)
	s.Base = relation.NewCompare("a", relation.LE, relation.F(5))
	nv, _, err := Solve(context.Background(), s, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range nv.Rows {
		if rel.Float(r, 0) > 5 {
			t.Errorf("tuple %d violates base predicate", r)
		}
	}
}

func TestNaiveFeasibilityOnly(t *testing.T) {
	rel := itemsRel(15, 6)
	s := spec(rel, 2, 100, true)
	s.Objective = nil
	nv, _, err := Solve(context.Background(), s, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if nv == nil || nv.Size() != 2 {
		t.Fatal("feasibility-only naive evaluation failed")
	}
}

func TestCardinalityExtraction(t *testing.T) {
	rel := itemsRel(5, 7)
	s := spec(rel, 4, 100, true)
	card, err := Cardinality(s)
	if err != nil || card != 4 {
		t.Errorf("Cardinality = %d err %v, want 4", card, err)
	}
	bad := spec(rel, 4, 100, true)
	bad.Constraints[0].RHS = 2.5
	if _, err := Cardinality(bad); err == nil {
		t.Error("fractional cardinality accepted")
	}
}

// Property: naive and DIRECT agree on random small strict-cardinality
// queries (both objective value and feasibility verdicts).
func TestQuickNaiveAgreesWithDirect(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		rel := itemsRel(8+rng.Intn(10), seed)
		card := 1 + rng.Intn(3)
		s := spec(rel, card, rng.Float64()*float64(card)*10, rng.Intn(2) == 0)
		nv, _, nErr := Solve(context.Background(), s, Options{})
		dPkg, _, dErr := core.Direct(context.Background(), s, ilp.Options{}, nil)
		if errors.Is(nErr, core.ErrInfeasible) || errors.Is(dErr, core.ErrInfeasible) {
			return errors.Is(nErr, core.ErrInfeasible) && errors.Is(dErr, core.ErrInfeasible)
		}
		if nErr != nil || dErr != nil {
			return false
		}
		nObj, _ := nv.ObjectiveValue(s)
		dObj, _ := dPkg.ObjectiveValue(s)
		return math.Abs(nObj-dObj) < 1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}
