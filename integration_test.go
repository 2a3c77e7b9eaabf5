package repro

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
	"repro/internal/partition"
	"repro/internal/relation"
	"repro/internal/reltest"
	"repro/internal/sketchrefine"
	"repro/internal/translate"
	"repro/internal/workload"
)

// TestEndToEndWorkloadConsistency runs every benchmark query of both
// datasets through the whole pipeline — generator → per-query table →
// PaQL parse → translate → DIRECT and SKETCHREFINE — and checks that
// both produce feasible packages and that SketchRefine's objective is
// within a sane factor of DIRECT's.
func TestEndToEndWorkloadConsistency(t *testing.T) {
	if testing.Short() {
		t.Skip("end-to-end workload in -short mode")
	}
	type ds struct {
		name    string
		full    *relation.Relation
		queries []workload.Query
	}
	galaxy := workload.Galaxy(4000, 5)
	tpch := workload.TPCH(8000, 5)
	sets := []ds{
		{"galaxy", galaxy, mustQueries(workload.GalaxyQueries(galaxy))},
		{"tpch", tpch, mustQueries(workload.TPCHQueries(tpch))},
	}
	opt := ilp.Options{MaxNodes: 50000, Gap: 1e-4, TimeLimit: 20 * time.Second}
	for _, set := range sets {
		attrs := workload.WorkloadAttrs(set.queries)
		for _, q := range set.queries {
			rel := workload.QueryTable(set.full, q)
			spec, err := translate.Compile(q.PaQL, rel)
			if err != nil {
				t.Fatalf("%s/%s: compile: %v", set.name, q.Name, err)
			}
			part, err := partition.Build(rel, partition.Options{Attrs: attrs, SizeThreshold: rel.Len()/10 + 1})
			if err != nil {
				t.Fatalf("%s/%s: partition: %v", set.name, q.Name, err)
			}
			dPkg, _, dErr := core.Direct(context.Background(), spec, opt, nil)
			sPkg, _, sErr := sketchrefine.EvaluateCtx(context.Background(), spec, part, sketchrefine.Options{Solver: opt, HybridSketch: true})
			if q.Hard {
				continue // hard queries may exhaust budgets at test scale
			}
			if dErr != nil {
				t.Errorf("%s/%s: DIRECT failed: %v", set.name, q.Name, dErr)
				continue
			}
			if sErr != nil {
				t.Errorf("%s/%s: SKETCHREFINE failed: %v", set.name, q.Name, sErr)
				continue
			}
			for _, pkg := range []*core.Package{dPkg, sPkg} {
				ok, err := pkg.IsFeasible(spec)
				if err != nil || !ok {
					viol, _ := pkg.Check(spec)
					t.Errorf("%s/%s: infeasible package: %v (err %v)", set.name, q.Name, viol, err)
				}
			}
			objD, _ := dPkg.ObjectiveValue(spec)
			objS, _ := sPkg.ObjectiveValue(spec)
			ratio := objD / objS
			if !q.Maximize {
				ratio = objS / objD
			}
			if ratio < 0.98 {
				t.Errorf("%s/%s: SketchRefine beat the optimum: ratio %g (objD %g, objS %g)",
					set.name, q.Name, ratio, objD, objS)
			}
			if ratio > 6 {
				t.Errorf("%s/%s: approximation ratio %g implausibly large", set.name, q.Name, ratio)
			}
		}
	}
}

// TestCSVPipelineRoundTrip exercises the external data path: generate,
// save to CSV, reload, and evaluate — as cmd/paqlcli does.
func TestCSVPipelineRoundTrip(t *testing.T) {
	rel := workload.Galaxy(500, 9)
	path := t.TempDir() + "/galaxy.csv"
	if err := relation.SaveCSV(rel, path); err != nil {
		t.Fatal(err)
	}
	back, err := relation.LoadCSV(path)
	if err != nil {
		t.Fatal(err)
	}
	spec, err := translate.Compile(`
SELECT PACKAGE(G) AS P FROM galaxy G REPEAT 0
SUCH THAT COUNT(P.*) = 4 AND SUM(P.redshift) <= 3
MAXIMIZE SUM(P.petrorad)`, back)
	if err != nil {
		t.Fatal(err)
	}
	pkg, _, err := core.Direct(context.Background(), spec, ilp.Options{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	ok, _ := pkg.IsFeasible(spec)
	if !ok || pkg.Size() != 4 {
		t.Fatalf("CSV pipeline produced bad package: size %d feasible %v", pkg.Size(), ok)
	}
	mat := pkg.Materialize("answer")
	if mat.Len() != 4 || !mat.Schema().Equal(back.Schema()) {
		t.Error("materialized package shape wrong")
	}
}

// TestQuickPipelineFeasibility is the central system property: for random
// data and random feasible queries, both evaluators produce packages that
// pass independent feasibility checking, and DIRECT's objective is never
// worse than SketchRefine's.
func TestQuickPipelineFeasibility(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 100 + rng.Intn(200)
		rel := relation.New("items", reltest.Schema(
			relation.Column{Name: "cost", Type: relation.Float},
			relation.Column{Name: "value", Type: relation.Float},
		))
		for i := 0; i < n; i++ {
			reltest.Append(rel, relation.F(1+rng.Float64()*9), relation.F(1+rng.Float64()*9))
		}
		card := 2 + rng.Intn(5)
		// Anchor feasibility at a random package.
		rows := rng.Perm(n)[:card]
		cost := 0.0
		for _, r := range rows {
			cost += rel.Float(r, 0)
		}
		paql := `
SELECT PACKAGE(I) AS P FROM items I REPEAT 0
SUCH THAT COUNT(P.*) = ` + itoa(card) + ` AND SUM(P.cost) <= ` + ftoa(cost+1) + `
MAXIMIZE SUM(P.value)`
		spec, err := translate.Compile(paql, rel)
		if err != nil {
			return false
		}
		dPkg, _, err := core.Direct(context.Background(), spec, ilp.Options{}, nil)
		if err != nil {
			return false
		}
		part, err := partition.Build(rel, partition.Options{
			Attrs:         []string{"cost", "value"},
			SizeThreshold: 10 + rng.Intn(n),
		})
		if err != nil {
			return false
		}
		sPkg, _, err := sketchrefine.EvaluateCtx(context.Background(), spec, part, sketchrefine.Options{HybridSketch: true})
		if err != nil {
			// Allowed: false infeasibility. Not allowed: other errors.
			return errors.Is(err, sketchrefine.ErrFalseInfeasible) || errors.Is(err, core.ErrInfeasible)
		}
		okD, _ := dPkg.IsFeasible(spec)
		okS, _ := sPkg.IsFeasible(spec)
		if !okD || !okS {
			return false
		}
		objD, _ := dPkg.ObjectiveValue(spec)
		objS, _ := sPkg.ObjectiveValue(spec)
		return objD >= objS-1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// TestApproximationBoundEndToEnd verifies Theorem 3 through the public
// pipeline: with ω from ε, SketchRefine is within (1±ε)⁶ of DIRECT.
func TestApproximationBoundEndToEnd(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	rel := relation.New("items", reltest.Schema(
		relation.Column{Name: "cost", Type: relation.Float},
		relation.Column{Name: "value", Type: relation.Float},
	))
	for i := 0; i < 240; i++ {
		reltest.Append(rel, relation.F(2+rng.Float64()*8), relation.F(2+rng.Float64()*8))
	}
	paql := `
SELECT PACKAGE(I) AS P FROM items I REPEAT 0
SUCH THAT COUNT(P.*) = 6 AND SUM(P.cost) <= 40
MAXIMIZE SUM(P.value)`
	spec, err := translate.Compile(paql, rel)
	if err != nil {
		t.Fatal(err)
	}
	dPkg, _, err := core.Direct(context.Background(), spec, ilp.Options{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	objD, _ := dPkg.ObjectiveValue(spec)
	for _, eps := range []float64{0.2, 0.5} {
		omega, err := partition.RadiusForEpsilon(rel, []string{"cost", "value"}, eps, true)
		if err != nil || omega <= 0 {
			t.Fatalf("omega: %g, %v", omega, err)
		}
		part, err := partition.Build(rel, partition.Options{
			Attrs: []string{"cost", "value"}, SizeThreshold: 60, RadiusLimit: omega,
		})
		if err != nil {
			t.Fatal(err)
		}
		sPkg, _, err := sketchrefine.EvaluateCtx(context.Background(), spec, part, sketchrefine.Options{HybridSketch: true})
		if err != nil {
			continue // false infeasibility is permitted by the theorem
		}
		objS, _ := sPkg.ObjectiveValue(spec)
		bound := math.Pow(1-eps, 6) * objD
		if objS < bound-1e-9 {
			t.Errorf("ε=%g: objective %g below (1−ε)⁶·OPT = %g", eps, objS, bound)
		}
	}
}

func ftoa(v float64) string {
	// Integer-ish rendering is enough for test query text.
	return itoa(int(v*1000)) + "e-3"
}
