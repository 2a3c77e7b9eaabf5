package main

import (
	"fmt"
	"io"
	"math"
	"text/tabwriter"
)

// benchSpec is BENCHMARK.json at the repository root.
type benchSpec struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// Where -compare finds the bounds and its default left side, relative
// to the repository root it is run from.
const (
	specPath        = "BENCHMARK.json"
	defaultBaseline = "benchmarks/baseline.json"
)

// gapTolerance is how far objective_gap may rise: it repeats exactly,
// so any rise beyond rounding is a worse package.
const gapTolerance = 1e-9

// runCompare prints one row per (workload, end-to-end metric) of two
// result files with a verdict against the metric's bound, then one row
// per workload for its failures, and exits non-zero when any row
// regressed.
func runCompare(args []string, stdout, stderr io.Writer) int {
	var aPath, bPath string
	switch len(args) {
	case 1:
		aPath, bPath = defaultBaseline, args[0]
	case 2:
		aPath, bPath = args[0], args[1]
	default:
		fmt.Fprintln(stderr, "paqbench: -compare takes one result file (against benchmarks/baseline.json) or two")
		return 2
	}
	var spec benchSpec
	var a, b resultFile
	for _, in := range []struct {
		path string
		into any
	}{{specPath, &spec}, {aPath, &a}, {bPath, &b}} {
		if err := readJSON(in.path, in.into); err != nil {
			fmt.Fprintf(stderr, "paqbench: %v\n", err)
			return 2
		}
	}
	tw := tabwriter.NewWriter(stdout, 0, 0, 2, ' ', 0)
	fmt.Fprintf(tw, "workload\tmetric\tunit\t%s (base)\tspread\t%s\tspread\tratio\tbound\tverdict\n", aPath, bPath)
	regressed := compareResults(tw, &spec, &a, &b)
	tw.Flush()
	if regressed > 0 {
		fmt.Fprintf(stdout, "%d regressed\n", regressed)
		return 1
	}
	return 0
}

// compareResults writes the rows of b against the base a and returns
// how many regressed.
func compareResults(tw io.Writer, spec *benchSpec, a, b *resultFile) int {
	regressed := 0
	for _, wl := range spec.Workloads {
		for _, sm := range spec.EndToEnd {
			am, aok := a.Workloads[wl.Name].Metrics[sm.Name]
			bm, bok := b.Workloads[wl.Name].Metrics[sm.Name]
			if !aok || !bok {
				fmt.Fprintf(tw, "%s\t%s\t%s\t-\t-\t-\t-\t-\t%.3f\tunresolved (missing)\n", wl.Name, sm.Name, sm.Unit, sm.Bound)
				continue
			}
			v := verdict(am, bm, sm)
			if v == "regressed" {
				regressed++
			}
			ratio := 0.0
			if am.Median != 0 {
				ratio = bm.Median / am.Median
			}
			fmt.Fprintf(tw, "%s\t%s\t%s\t%.6g\t%.3f\t%.6g\t%.3f\t%.4f\t%.3f\t%s\n",
				wl.Name, sm.Name, sm.Unit, am.Median, am.spread(), bm.Median, bm.spread(), ratio, sm.Bound, v)
		}
		// Failures: a result that failed a correctness check, or in which a
		// larger share of operations failed than in the base, regressed
		// whatever its timings say.
		aw, bw := a.Workloads[wl.Name], b.Workloads[wl.Name]
		af, bf := aw.failedFrac(), bw.failedFrac()
		v := "unchanged"
		if !bw.Correct || bf > af {
			v = "regressed"
			regressed++
		}
		fmt.Fprintf(tw, "%s\tfailed_frac\tratio\t%.6g\t-\t%.6g\t-\t-\t-\t%s (correct: %v, %v)\n",
			wl.Name, af, bf, v, aw.Correct, bw.Correct)
	}
	return regressed
}

// failedFrac is failed ÷ attempted over the workload's untraced runs.
func (w aggWorkload) failedFrac() float64 {
	failed, attempted := 0, 0
	for i := range w.Attempted {
		failed += w.Failed[i]
		attempted += w.Attempted[i]
	}
	return float64(failed) / float64(max(1, attempted))
}

// verdict judges b against the base a. objective_gap repeats exactly and
// is judged absolutely: it may not rise. For the others, where either
// side's own run-to-run spread is wider than the bound the pair is
// unresolved: the files cannot tell a change of that size from noise.
// Otherwise b regressed when it is worse than a by more than the bound,
// improved when it is better by more than the bound, and is unchanged
// between. Against a base of 0 any worsening is beyond every bound.
func verdict(a, b aggMetric, sm specMetric) string {
	worse := b.Median - a.Median // for a lower-is-better metric
	if sm.Better == "higher" {
		worse = -worse
	}
	if sm.Name == "objective_gap" {
		switch {
		case worse > gapTolerance:
			return "regressed"
		case worse < -gapTolerance:
			return "improved"
		default:
			return "unchanged"
		}
	}
	if a.spread() > sm.Bound || b.spread() > sm.Bound {
		return "unresolved"
	}
	if a.Median == 0 {
		switch {
		case worse > 0:
			return "regressed"
		case worse < 0:
			return "improved"
		default:
			return "unchanged"
		}
	}
	worse /= math.Abs(a.Median)
	switch {
	case worse > sm.Bound:
		return "regressed"
	case worse < -sm.Bound:
		return "improved"
	default:
		return "unchanged"
	}
}
