package workload

import (
	"context"
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/ilp"
	"repro/internal/relation"
	"repro/internal/translate"
)

func TestGalaxyGeneratorShape(t *testing.T) {
	rel := Galaxy(5000, 1)
	if rel.Len() != 5000 {
		t.Fatalf("len = %d, want 5000", rel.Len())
	}
	if rel.Name() != "galaxy" {
		t.Errorf("name %q", rel.Name())
	}
	// All declared attrs exist and are numeric.
	for _, a := range GalaxyAttrs {
		idx := rel.Schema().Lookup(a)
		if idx < 0 {
			t.Fatalf("missing attr %q", a)
		}
		if !rel.Schema().Col(idx).Type.Numeric() {
			t.Errorf("attr %q not numeric", a)
		}
	}
	// Ranges.
	for row := 0; row < rel.Len(); row += 97 {
		ra := rel.Float(row, rel.Schema().Lookup("ra"))
		dec := rel.Float(row, rel.Schema().Lookup("dec"))
		red := rel.Float(row, rel.Schema().Lookup("redshift"))
		if ra < 0 || ra >= 360.0001 {
			t.Errorf("ra %g out of range", ra)
		}
		if dec < -90 || dec > 90 {
			t.Errorf("dec %g out of range", dec)
		}
		if red < 0 || red > 7 {
			t.Errorf("redshift %g out of range", red)
		}
	}
	// Determinism.
	again := Galaxy(5000, 1)
	for _, col := range []string{"ra", "u", "redshift"} {
		c := rel.Schema().Lookup(col)
		for row := 0; row < 100; row++ {
			if rel.Float(row, c) != again.Float(row, c) {
				t.Fatalf("generator not deterministic at (%d, %s)", row, col)
			}
		}
	}
	// Different seeds differ.
	other := Galaxy(5000, 2)
	same := true
	c := rel.Schema().Lookup("ra")
	for row := 0; row < 100; row++ {
		if rel.Float(row, c) != other.Float(row, c) {
			same = false
			break
		}
	}
	if same {
		t.Error("different seeds produced identical data")
	}
}

func TestGalaxyMagnitudesCorrelated(t *testing.T) {
	rel := Galaxy(4000, 3)
	// u and r share the base brightness: strong positive correlation.
	u := rel.FloatColumn(rel.Schema().Lookup("u"))
	r := rel.FloatColumn(rel.Schema().Lookup("r"))
	corr := pearson(u, r)
	if corr < 0.8 {
		t.Errorf("corr(u, r) = %g, want >= 0.8 (correlated magnitudes)", corr)
	}
}

func pearson(a, b []float64) float64 {
	n := float64(len(a))
	var sa, sb, saa, sbb, sab float64
	for i := range a {
		sa += a[i]
		sb += b[i]
		saa += a[i] * a[i]
		sbb += b[i] * b[i]
		sab += a[i] * b[i]
	}
	cov := sab/n - sa/n*sb/n
	va := saa/n - sa/n*sa/n
	vb := sbb/n - sb/n*sb/n
	return cov / math.Sqrt(va*vb)
}

func TestTPCHGeneratorShape(t *testing.T) {
	rel := TPCH(5000, 1)
	if rel.Len() != 5000 {
		t.Fatalf("len = %d", rel.Len())
	}
	for _, a := range TPCHAttrs {
		if rel.Schema().Lookup(a) < 0 {
			t.Fatalf("missing attr %q", a)
		}
	}
	segIdx := rel.Schema().Lookup("seg")
	qtyIdx := rel.Schema().Lookup("quantity")
	discIdx := rel.Schema().Lookup("discount")
	for row := 0; row < rel.Len(); row += 53 {
		seg := rel.Float(row, segIdx)
		if seg < 0 || seg >= 1 {
			t.Errorf("seg %g out of [0,1)", seg)
		}
		qty := rel.Float(row, qtyIdx)
		if qty < 1 || qty > 50 {
			t.Errorf("quantity %g out of [1,50]", qty)
		}
		d := rel.Float(row, discIdx)
		if d < 0 || d > 0.1+1e-9 {
			t.Errorf("discount %g out of [0, 0.1]", d)
		}
	}
}

func TestTPCHSubsetFractions(t *testing.T) {
	rel := TPCH(20000, 2)
	segIdx := rel.Schema().Lookup("seg")
	for name, frac := range TPCHSubsetFraction {
		count := 0
		for row := 0; row < rel.Len(); row++ {
			if rel.Float(row, segIdx) <= frac {
				count++
			}
		}
		got := float64(count) / float64(rel.Len())
		if math.Abs(got-frac) > 0.02 {
			t.Errorf("%s: subset fraction %g, want ≈ %g (Figure 3)", name, got, frac)
		}
	}
	// Figure 3's ordering: Q5 is by far the smallest, Q6 the largest.
	if TPCHSubsetFraction["Q5"] >= TPCHSubsetFraction["Q1"] || TPCHSubsetFraction["Q6"] <= TPCHSubsetFraction["Q1"] {
		t.Error("subset fraction ordering does not match Figure 3")
	}
}

func TestAllQueriesCompileAndSolve(t *testing.T) {
	datasets := []struct {
		rel     *relation.Relation
		queries []Query
	}{
		{Galaxy(800, 7), nil},
		{TPCH(800, 7), nil},
	}
	var err error
	if datasets[0].queries, err = GalaxyQueries(datasets[0].rel); err != nil {
		t.Fatal(err)
	}
	if datasets[1].queries, err = TPCHQueries(datasets[1].rel); err != nil {
		t.Fatal(err)
	}

	for _, ds := range datasets {
		if len(ds.queries) != 7 {
			t.Fatalf("%s: %d queries, want 7", ds.rel.Name(), len(ds.queries))
		}
		for _, q := range ds.queries {
			spec, err := translate.Compile(q.PaQL, ds.rel)
			if err != nil {
				t.Fatalf("%s/%s does not compile: %v\n%s", ds.rel.Name(), q.Name, err, q.PaQL)
			}
			if q.Hard {
				continue // hard queries are exercised in benches, not unit tests
			}
			pkg, _, err := core.Direct(context.Background(), spec, ilp.Options{MaxNodes: 200000}, nil)
			if err != nil {
				t.Errorf("%s/%s: DIRECT failed: %v", ds.rel.Name(), q.Name, err)
				continue
			}
			ok, err := pkg.IsFeasible(spec)
			if err != nil || !ok {
				t.Errorf("%s/%s: infeasible package (err %v)", ds.rel.Name(), q.Name, err)
			}
			if spec.Objective != nil && spec.Objective.Maximize != q.Maximize {
				t.Errorf("%s/%s: Maximize flag out of sync with query text", ds.rel.Name(), q.Name)
			}
		}
	}
}

func TestWorkloadAttrsUnion(t *testing.T) {
	rel := Galaxy(500, 4)
	queries, err := GalaxyQueries(rel)
	if err != nil {
		t.Fatal(err)
	}
	attrs := WorkloadAttrs(queries)
	seen := make(map[string]bool)
	for _, a := range attrs {
		if seen[a] {
			t.Errorf("duplicate workload attr %q", a)
		}
		seen[a] = true
	}
	for _, q := range queries {
		for _, a := range q.Attrs {
			if !seen[a] {
				t.Errorf("query %s attr %q missing from workload attrs", q.Name, a)
			}
		}
	}
}

func TestQueryAttrsMatchCompiledSpecs(t *testing.T) {
	rel := Galaxy(400, 5)
	gq, err := GalaxyQueries(rel)
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range gq {
		spec, err := translate.Compile(q.PaQL, rel)
		if err != nil {
			t.Fatal(err)
		}
		declared := make(map[string]bool)
		for _, a := range q.Attrs {
			declared[a] = true
		}
		for _, a := range spec.QueryAttrs() {
			if !declared[a] {
				t.Errorf("%s: compiled spec uses %q, not in declared attrs %v", q.Name, a, q.Attrs)
			}
		}
	}
}
