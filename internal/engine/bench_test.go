package engine_test

import (
	"fmt"
	"runtime"
	"testing"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/ilp"
	"repro/internal/partition"
	"repro/internal/sketchrefine"
	"repro/internal/translate"
	"repro/internal/workload"
)

// BenchmarkPartitionBuild measures the offline partitioning at several
// worker counts; on a multi-core machine the GOMAXPROCS row should beat
// workers=1 by roughly the core count (the quad-tree fan-out is
// embarrassingly parallel below the first few levels).
func BenchmarkPartitionBuild(b *testing.B) {
	rel := workload.Galaxy(40000, 17)
	attrs := []string{"ra", "dec", "redshift", "petrorad"}
	for _, workers := range []int{1, 2, 4, runtime.GOMAXPROCS(0)} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				_, err := partition.Build(rel, partition.Options{
					Attrs:         attrs,
					SizeThreshold: rel.Len()/10 + 1,
					Workers:       workers,
				})
				if err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkBatchEvaluate measures batch query evaluation over one shared
// partitioning at several fan-out widths. Queries are independent
// SketchRefine evaluations, so the speedup over workers=1 should track
// the core count until the solver saturates memory bandwidth.
func BenchmarkBatchEvaluate(b *testing.B) {
	rel := workload.Galaxy(4000, 17)
	part, err := partition.Build(rel, partition.Options{
		Attrs:         []string{"ra", "dec", "redshift", "petrorad"},
		SizeThreshold: rel.Len()/10 + 1,
	})
	if err != nil {
		b.Fatal(err)
	}
	specs := make([]*core.Spec, 0, 16)
	for i := 0; i < 16; i++ {
		card := 3 + i%5
		spec, err := translate.Compile(fmt.Sprintf(`
SELECT PACKAGE(G) AS P FROM galaxy G REPEAT 0
SUCH THAT COUNT(P.*) = %d AND SUM(P.redshift) <= %.3f
MAXIMIZE SUM(P.petrorad)`, card, 0.8*float64(card)+0.05*float64(i)), rel)
		if err != nil {
			b.Fatal(err)
		}
		specs = append(specs, spec)
	}
	opt := sketchrefine.Options{Solver: ilp.Options{MaxNodes: 50000, Gap: 1e-4}}
	for _, workers := range []int{1, 2, 4, runtime.GOMAXPROCS(0)} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				eng := engine.New(engine.SketchRefine{Part: part, Opt: opt})
				eng.NoCache = true // measure solves, not cache hits
				for qi, r := range evaluateAll(eng, specs, workers) {
					if r.Err != nil {
						b.Fatalf("query %d: %v", qi, r.Err)
					}
				}
			}
		})
	}
}
