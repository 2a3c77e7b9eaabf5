package paq_test

import (
	"context"
	"math"
	"path/filepath"
	"testing"

	"repro/internal/par"
	"repro/internal/relation"
	"repro/internal/workload"
	"repro/paq"
)

// TestOpenCSVWorkers: WithWorkers bounds Open's CSV decode. One worker
// loads without starting a goroutine; sessions opened with 1, 2 and 4
// workers hold the same cells at the same version and answer the seven
// Galaxy templates with the same objective bits under DIRECT and
// SketchRefine.
func TestOpenCSVWorkers(t *testing.T) {
	rel := workload.Galaxy(4000, 7) // about 290 KB of CSV: four ranges' worth
	queries, err := workload.GalaxyQueries(rel)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "galaxy.csv")
	if err := relation.SaveCSV(rel, path); err != nil {
		t.Fatal(err)
	}

	before := par.Started()
	if _, err := paq.Open(paq.CSV(path), paq.WithWorkers(1)); err != nil {
		t.Fatal(err)
	}
	if n := par.Started() - before; n != 0 {
		t.Errorf("WithWorkers(1): Open started %d goroutines", n)
	}

	var ref *relation.Relation
	refObj := make(map[string]uint64)
	for _, workers := range []int{1, 2, 4} {
		sess, err := paq.Open(paq.CSV(path), paq.WithWorkers(workers), paq.WithSeed(7),
			paq.WithNodeLimit(2000), paq.WithPartitionAttrs(workload.WorkloadAttrs(queries)...))
		if err != nil {
			t.Fatal(err)
		}
		got := sess.Rel()
		if ref == nil {
			ref = got
		} else if !sameCells(got, ref) {
			t.Fatalf("workers=%d: relation differs from workers=1 (len %d, version %d; want %d, %d)",
				workers, got.Len(), got.Version(), ref.Len(), ref.Version())
		}
		for _, q := range queries {
			for _, m := range []paq.Method{paq.MethodDirect, paq.MethodSketchRefine} {
				key := q.Name + "/" + string(m)
				stmt, err := sess.Prepare(q.PaQL, paq.WithMethod(m))
				if err != nil {
					t.Fatalf("%s: %v", key, err)
				}
				res, err := stmt.Execute(context.Background())
				if err != nil {
					t.Fatalf("workers=%d %s: %v", workers, key, err)
				}
				bits := math.Float64bits(res.Objective)
				if want, ok := refObj[key]; !ok {
					refObj[key] = bits
				} else if bits != want {
					t.Errorf("workers=%d %s: objective %v, want %v", workers, key, res.Objective, math.Float64frombits(want))
				}
			}
		}
	}
}

// sameCells reports whether a and b hold the same schema, rows, version
// and cell bits.
func sameCells(a, b *relation.Relation) bool {
	if !a.Schema().Equal(b.Schema()) || a.Len() != b.Len() || a.Live() != b.Live() || a.Version() != b.Version() {
		return false
	}
	for row := 0; row < a.Len(); row++ {
		for c := 0; c < a.Schema().Len(); c++ {
			va, vb := a.Value(row, c), b.Value(row, c)
			if va.Type() != vb.Type() || va.String() != vb.String() ||
				math.Float64bits(a.Float(row, c)) != math.Float64bits(b.Float(row, c)) {
				return false
			}
		}
	}
	return true
}
