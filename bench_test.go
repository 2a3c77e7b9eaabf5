// Package repro's root benchmark suite regenerates every table and
// figure of the paper's evaluation as Go benchmarks (testing.B), one per
// experiment. Each benchmark wraps the corresponding internal/bench
// harness at a laptop-scale configuration; cmd/benchrunner runs the same
// experiments at larger scales with printed tables.
//
//	go test -bench=. -benchmem
//
// Benchmark names map to the paper: BenchmarkFigure1_* (SQL vs ILP
// formulation), BenchmarkFigure3_* (TPC-H table sizes),
// BenchmarkFigure4_* (partitioning time), BenchmarkFigure5/6_* (Galaxy
// and TPC-H scalability), BenchmarkFigure7/8_* (τ sweeps),
// BenchmarkFigure9_* (partitioning coverage), and
// BenchmarkSection521_EpsilonRepair (the TPC-H Q2 radius-limit note).
package repro

import (
	"context"
	"sync"
	"testing"
	"time"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/ilp"
	"repro/internal/naive"
	"repro/internal/partition"
	"repro/internal/relation"
	"repro/internal/sketchrefine"
	"repro/internal/translate"
	"repro/internal/workload"
)

// benchEnv caches one harness environment across benchmarks.
var (
	envOnce sync.Once
	env     *bench.Env
)

// benchSolver maps the harness config to the internal solver budgets
// (the benchmarks below exercise the internal strategy APIs directly).
func benchSolver(e *bench.Env) ilp.Options {
	cfg := e.Config()
	return ilp.Options{TimeLimit: cfg.TimeLimit, MaxNodes: cfg.MaxNodes, Gap: cfg.Gap}
}

func getEnv() *bench.Env {
	envOnce.Do(func() {
		var err error
		env, err = bench.NewEnv(bench.Config{
			GalaxyN:   6000,
			TPCHN:     12000,
			Seed:      1,
			MaxNodes:  50000,
			Gap:       1e-4,
			TimeLimit: 30 * time.Second,
		})
		if err != nil {
			panic(err)
		}
	})
	return env
}

// mustQueries unwraps a workload query-list constructor result inside
// tests and benchmarks (construction only fails on a malformed dataset,
// which would be a bug in the generators).
func mustQueries(qs []workload.Query, err error) []workload.Query {
	if err != nil {
		panic(err)
	}
	return qs
}

// fig1Spec builds the Figure 1 query at one cardinality over n tuples.
func fig1Spec(b *testing.B, card int) *core.Spec {
	b.Helper()
	rel := workload.Galaxy(100, 1)
	spec, err := translate.Compile(`
SELECT PACKAGE(G) AS P FROM galaxy G REPEAT 0
SUCH THAT COUNT(P.*) = `+itoa(card)+` AND SUM(P.r) >= `+itoa(card*13)+`
MINIMIZE SUM(P.redshift)`, rel)
	if err != nil {
		b.Fatal(err)
	}
	return spec
}

func itoa(v int) string {
	if v == 0 {
		return "0"
	}
	neg := v < 0
	if neg {
		v = -v
	}
	var buf [20]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	if neg {
		i--
		buf[i] = '-'
	}
	return string(buf[i:])
}

// BenchmarkFigure1_SQLFormulation measures the naive multi-way self-join
// baseline at increasing package cardinalities (the exploding curve of
// Figure 1).
func BenchmarkFigure1_SQLFormulation(b *testing.B) {
	for _, card := range []int{1, 2, 3, 4} {
		spec := fig1Spec(b, card)
		b.Run("card="+itoa(card), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				_, stats, err := naive.Solve(context.Background(), spec, naive.Options{Timeout: 20 * time.Second})
				if err == nil && stats.Truncated {
					err = naive.ErrTimeout
				}
				if err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFigure1_ILPFormulation measures DIRECT on the same queries
// (the flat curve of Figure 1).
func BenchmarkFigure1_ILPFormulation(b *testing.B) {
	for _, card := range []int{1, 2, 3, 4, 5, 6, 7} {
		spec := fig1Spec(b, card)
		b.Run("card="+itoa(card), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, _, err := core.Direct(context.Background(), spec, ilp.Options{Gap: 1e-4}, nil); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFigure3_TPCHSubsets measures per-query base-table
// materialization (Figure 3's table construction).
func BenchmarkFigure3_TPCHSubsets(b *testing.B) {
	rel := workload.TPCH(12000, 1)
	queries := mustQueries(workload.TPCHQueries(rel))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, q := range queries {
			t := workload.QueryTable(rel, q)
			if t.Len() == 0 {
				b.Fatal("empty query table")
			}
		}
	}
}

// BenchmarkFigure4_PartitioningGalaxy measures offline quad-tree
// partitioning of the Galaxy dataset (Figure 4, first row).
func BenchmarkFigure4_PartitioningGalaxy(b *testing.B) {
	rel := workload.Galaxy(12000, 1)
	attrs := workload.WorkloadAttrs(mustQueries(workload.GalaxyQueries(rel)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := partition.Build(rel, partition.Options{Attrs: attrs, SizeThreshold: 1200}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure4_PartitioningTPCH measures offline partitioning of the
// TPC-H dataset (Figure 4, second row).
func BenchmarkFigure4_PartitioningTPCH(b *testing.B) {
	rel := workload.TPCH(12000, 1)
	attrs := workload.WorkloadAttrs(mustQueries(workload.TPCHQueries(rel)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := partition.Build(rel, partition.Options{Attrs: attrs, SizeThreshold: 1200}); err != nil {
			b.Fatal(err)
		}
	}
}

// scalabilityBench runs the DIRECT and SKETCHREFINE sides of one
// workload query at full scale (Figures 5 and 6's 100% points).
func scalabilityBench(b *testing.B, ds bench.Dataset) {
	e := getEnv()
	solver := benchSolver(e)
	for _, q := range e.Queries(ds) {
		rel := workload.QueryTable(datasetRel(ds), q)
		spec, err := translate.Compile(q.PaQL, rel)
		if err != nil {
			b.Fatal(err)
		}
		part, err := partition.Build(rel, partition.Options{
			Attrs:         workload.WorkloadAttrs(e.Queries(ds)),
			SizeThreshold: rel.Len()/10 + 1,
		})
		if err != nil {
			b.Fatal(err)
		}
		b.Run(q.Name+"/direct", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				_, _, err := core.Direct(context.Background(), spec, solver, nil)
				if err != nil && q.Hard {
					b.Skipf("DIRECT failure on hard query (paper-consistent): %v", err)
				} else if err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(q.Name+"/sketchrefine", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				_, _, err := sketchrefine.EvaluateCtx(context.Background(), spec, part, sketchrefine.Options{Solver: solver})
				if err != nil && q.Hard {
					b.Skipf("hard query at bench scale: %v", err)
				} else if err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

var (
	relOnce sync.Once
	dsRels  map[bench.Dataset]*relation.Relation
)

// datasetRel returns the cached full dataset at the benchmark scale.
func datasetRel(ds bench.Dataset) *relation.Relation {
	relOnce.Do(func() {
		dsRels = map[bench.Dataset]*relation.Relation{
			bench.Galaxy: workload.Galaxy(6000, 1),
			bench.TPCH:   workload.TPCH(12000, 1),
		}
	})
	return dsRels[ds]
}

// BenchmarkFigure5_Galaxy reproduces Figure 5's per-query comparison.
func BenchmarkFigure5_Galaxy(b *testing.B) { scalabilityBench(b, bench.Galaxy) }

// BenchmarkFigure6_TPCH reproduces Figure 6's per-query comparison.
func BenchmarkFigure6_TPCH(b *testing.B) { scalabilityBench(b, bench.TPCH) }

// BenchmarkFigure7_TauSweepGalaxy measures SketchRefine across partition
// size thresholds on Galaxy (Figure 7's sweep, at a single query).
func BenchmarkFigure7_TauSweepGalaxy(b *testing.B) { tauSweepBench(b, bench.Galaxy) }

// BenchmarkFigure8_TauSweepTPCH is the TPC-H τ sweep (Figure 8).
func BenchmarkFigure8_TauSweepTPCH(b *testing.B) { tauSweepBench(b, bench.TPCH) }

func tauSweepBench(b *testing.B, ds bench.Dataset) {
	e := getEnv()
	q := e.Queries(ds)[2] // Q3: a representative non-hard query
	rel := workload.QueryTable(datasetRel(ds), q)
	spec, err := translate.Compile(q.PaQL, rel)
	if err != nil {
		b.Fatal(err)
	}
	attrs := workload.WorkloadAttrs(e.Queries(ds))
	for tau := rel.Len() / 2; tau >= 64; tau /= 8 {
		part, err := partition.Build(rel, partition.Options{Attrs: attrs, SizeThreshold: tau})
		if err != nil {
			b.Fatal(err)
		}
		b.Run("tau="+itoa(tau), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, _, err := sketchrefine.EvaluateCtx(context.Background(), spec, part, sketchrefine.Options{
					Solver: benchSolver(e),
				}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFigure9_Coverage measures SketchRefine under partitionings
// covering subsets, exactly, and supersets of the query attributes
// (Figure 9).
func BenchmarkFigure9_Coverage(b *testing.B) {
	e := getEnv()
	q := e.Queries(bench.Galaxy)[2] // Q3 touches three attributes
	rel := workload.QueryTable(datasetRel(bench.Galaxy), q)
	spec, err := translate.Compile(q.PaQL, rel)
	if err != nil {
		b.Fatal(err)
	}
	all := workload.WorkloadAttrs(e.Queries(bench.Galaxy))
	variants := map[string][]string{
		"subset":   q.Attrs[:1],
		"exact":    q.Attrs,
		"superset": all,
	}
	for _, name := range []string{"subset", "exact", "superset"} {
		attrs := variants[name]
		part, err := partition.Build(rel, partition.Options{Attrs: attrs, SizeThreshold: rel.Len()/10 + 1})
		if err != nil {
			b.Fatal(err)
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, _, err := sketchrefine.EvaluateCtx(context.Background(), spec, part, sketchrefine.Options{
					Solver: benchSolver(e),
				}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkSection521_EpsilonRepair measures the radius-limited
// partitioning + evaluation pipeline of the Section 5.2.1 note (TPC-H Q2
// with ε = 1.0).
func BenchmarkSection521_EpsilonRepair(b *testing.B) {
	e := getEnv()
	q := e.Queries(bench.TPCH)[1]
	rel := workload.QueryTable(datasetRel(bench.TPCH), q)
	spec, err := translate.Compile(q.PaQL, rel)
	if err != nil {
		b.Fatal(err)
	}
	omega, err := partition.RadiusForEpsilon(rel, q.Attrs, 1.0, q.Maximize)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		part, err := partition.Build(rel, partition.Options{
			Attrs: q.Attrs, SizeThreshold: rel.Len()/10 + 1, RadiusLimit: omega,
		})
		if err != nil {
			b.Fatal(err)
		}
		if _, _, err := sketchrefine.EvaluateCtx(context.Background(), spec, part, sketchrefine.Options{
			Solver: benchSolver(e),
		}); err != nil {
			b.Fatal(err)
		}
	}
}
