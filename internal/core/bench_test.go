package core_test

import (
	"testing"

	"repro/internal/core"
	"repro/internal/translate"
	"repro/internal/workload"
)

// galaxySpecs compiles the named Galaxy templates over n generated rows.
func galaxySpecs(b *testing.B, n int, names ...string) map[string]*core.Spec {
	b.Helper()
	rel := workload.Galaxy(n, 1)
	queries, err := workload.GalaxyQueries(rel)
	if err != nil {
		b.Fatal(err)
	}
	specs := make(map[string]*core.Spec)
	for _, q := range queries {
		for _, name := range names {
			if q.Name == name {
				if specs[name], err = translate.Compile(q.PaQL, rel); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
	return specs
}

var sinkVars int

// BenchmarkBuildILP is core.build_ilp_ms's rung: one refine-sized group
// (τ = 10 % of the benchmark's 200 000 rows) priced by Q4's coefficients
// (COUNT, four SUMs and a SUM objective: plain column gathers) and Q7's (a
// conditional COUNT: a selection pass inside the gather).
func BenchmarkBuildILP(b *testing.B) {
	const group = 20_000
	for name, spec := range galaxySpecs(b, group, "Q4", "Q7") {
		rows := spec.BaseRows()
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				prob, err := core.BuildILP(spec, rows, nil)
				if err != nil {
					b.Fatal(err)
				}
				sinkVars = prob.LP.NumVars()
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(len(rows)), "ns/var")
		})
	}
}

// BenchmarkCountBase is what Prepare pays to size a filtered statement:
// Q5's MAX(P.redshift) <= c restriction counted over the benchmark's
// 200 000 rows, no row list built.
func BenchmarkCountBase(b *testing.B) {
	spec := galaxySpecs(b, 200_000, "Q5")["Q5"]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sinkVars = spec.CountBase()
	}
}
