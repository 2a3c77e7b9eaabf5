package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// smokeRun runs one workload at -scale tiny in this process and returns
// its record.
func smokeRun(t *testing.T, workload string, seed int64, traced bool) *runRecord {
	t.Helper()
	dir := t.TempDir()
	out := filepath.Join(dir, "run.json")
	args := []string{
		"-workload", workload, "-scale", "tiny", "-workdir", dir, "-out", out,
		"-seed", strconv.FormatInt(seed, 10),
	}
	if traced {
		args = append(args, "-trace", "1")
	}
	var stdout, stderr bytes.Buffer
	if code := run(context.Background(), args, &stdout, &stderr); code != 0 {
		t.Fatalf("%s (traced=%v): exit code %d\n%s%s", workload, traced, code, stdout.String(), stderr.String())
	}
	var rec runRecord
	if err := readJSON(out, &rec); err != nil {
		t.Fatal(err)
	}
	if !rec.Correct {
		t.Fatalf("%s: correctness checks failed: %v", workload, rec.Violations)
	}

	// The last line of standard output is the result object, with exactly
	// the keys the driver reads.
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var last map[string]json.RawMessage
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
		t.Fatalf("%s: last line is not a JSON object: %v", workload, err)
	}
	for _, k := range []string{"correct", "attempted", "failed", "metrics"} {
		if _, ok := last[k]; !ok {
			t.Errorf("%s: result line lacks %q", workload, k)
		}
	}
	if len(last) != 4 {
		t.Errorf("%s: result line has %d keys, want 4", workload, len(last))
	}
	// Every metric is printed by name with its unit.
	for name, m := range rec.Metrics {
		if !strings.Contains(stdout.String(), " "+name+" ") {
			t.Errorf("%s: no row for %s", workload, name)
		}
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			t.Errorf("%s: %s is %v", workload, name, m.Value)
		}
	}
	if traced {
		if _, err := os.Stat(filepath.Join(dir, "trace.json")); err != nil {
			t.Errorf("%s: no trace.json beside -out: %v", workload, err)
		}
	}
	return &rec
}

// namesOf checks that a record holds exactly the declared metrics, with
// the declared units.
func namesOf(t *testing.T, rec *runRecord, want []specMetric) {
	t.Helper()
	if len(rec.Metrics) != len(want) {
		t.Errorf("%s: %d metrics emitted, BENCHMARK.json names %d", rec.Workload, len(rec.Metrics), len(want))
	}
	for _, sm := range want {
		m, ok := rec.Metrics[sm.Name]
		if !ok {
			t.Errorf("%s: %s is in BENCHMARK.json and was not emitted", rec.Workload, sm.Name)
		} else if m.Unit != sm.Unit {
			t.Errorf("%s: %s emitted in %s, BENCHMARK.json says %s", rec.Workload, sm.Name, m.Unit, sm.Unit)
		}
	}
}

// TestSmoke runs all four workloads at -scale tiny, untraced and traced:
// every correctness check passes, exactly the workloads and metrics
// BENCHMARK.json names are emitted and finite, and the metrics that are
// counts of deterministic work repeat exactly.
func TestSmoke(t *testing.T) {
	var spec benchSpec
	if err := readJSON(filepath.Join("..", "..", specPath), &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloadNames) {
		t.Fatalf("BENCHMARK.json names %d workloads, the benchmark has %d", len(spec.Workloads), len(workloadNames))
	}
	for i, wl := range spec.Workloads {
		if wl.Name != workloadNames[i] {
			t.Errorf("BENCHMARK.json workload %d is %q, the benchmark's is %q", i, wl.Name, workloadNames[i])
		}
	}
	for _, sm := range spec.EndToEnd {
		if sm.Bound <= 0 || sm.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", sm.Name, sm.Bound)
		}
	}

	// Counts of deterministic work: the same seed repeats all of them.
	// The table does not depend on the seed (tableSeed), so another seed
	// changes only what the traffic decides — the WAL's bytes — and leaves
	// the quality of the packages where it was.
	exact := []string{
		"ilp.nodes", "lp.root_iterations", "sketchrefine.subproblems", "partition.groups",
		"store.wal_bytes", "wal_bytes_per_row", "bench.failed_frac",
	}

	for _, wl := range workloadNames {
		wl := wl
		t.Run(wl, func(t *testing.T) {
			// Only counts and correctness are asserted at this scale, and
			// both are the same under any scheduling, so the four workloads
			// share the two cores.
			t.Parallel()
			a := smokeRun(t, wl, 1, false)
			namesOf(t, a, spec.EndToEnd)
			b := smokeRun(t, wl, 2, false)
			if a.Metrics["objective_gap"].Value != b.Metrics["objective_gap"].Value {
				t.Errorf("objective_gap: %v on seed 1, %v on seed 2 over the same table",
					a.Metrics["objective_gap"].Value, b.Metrics["objective_gap"].Value)
			}
			if a.Failed != 0 || b.Failed != 0 || a.Attempted != b.Attempted {
				t.Errorf("failed/attempted %d/%d on seed 1, %d/%d on seed 2", a.Failed, a.Attempted, b.Failed, b.Attempted)
			}

			at := smokeRun(t, wl, 1, true)
			namesOf(t, at, spec.PerLayer)
			if wl == "sketchrefine" || wl == "serve" {
				// These two run the ladder ingest runs, over the same 2 000
				// rows, and the durable probe direct runs: the repeats of
				// those two workloads cover every count of these.
				return
			}
			at2 := smokeRun(t, wl, 1, true)
			for _, name := range exact {
				if at.Metrics[name].Value != at2.Metrics[name].Value {
					t.Errorf("%s: %v then %v on the same seed", name, at.Metrics[name].Value, at2.Metrics[name].Value)
				}
			}
		})
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1, 2, 4, 7, 11, 16, 22, 29, 37, 46], n=4)
	// == [3.5, 13.5, 31.0]
	q1, q3 := quartiles([]float64{46, 1, 2, 4, 7, 11, 16, 22, 29, 37})
	if q1 != 3.5 || q3 != 31 {
		t.Errorf("quartiles = %v, %v; want 3.5, 31", q1, q3)
	}
	// statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
	if q1, q3 := quartiles([]float64{3, 1, 2}); q1 != 1 || q3 != 3 {
		t.Errorf("quartiles of three = %v, %v; want 1, 3", q1, q3)
	}
}

func TestVerdict(t *testing.T) {
	lower := specMetric{Name: "query_p50_ms", Better: "lower", Bound: 0.10}
	higher := specMetric{Name: "queries_per_s", Better: "higher", Bound: 0.10}
	gap := specMetric{Name: "objective_gap", Better: "lower", Bound: 0.01}
	steady := func(v float64) aggMetric { return aggMetric{Median: v, Q1: v * 0.99, Q3: v * 1.01} }
	noisy := func(v float64) aggMetric { return aggMetric{Median: v, Q1: v * 0.9, Q3: v * 1.1} }
	for _, tc := range []struct {
		a, b aggMetric
		sm   specMetric
		want string
	}{
		{steady(10), steady(10.5), lower, "unchanged"},
		{steady(10), steady(11.5), lower, "regressed"},
		{steady(10), steady(8), lower, "improved"},
		{steady(10), steady(8), higher, "regressed"},
		{steady(10), steady(12), higher, "improved"},
		{noisy(10), steady(20), lower, "unresolved"},
		{steady(0), steady(1), lower, "regressed"},
		{noisy(0.5), noisy(0.5), gap, "unchanged"},
		{steady(0.5), steady(0.5000001), gap, "regressed"},
		{steady(0.5), steady(0.4), gap, "improved"},
	} {
		if got := verdict(tc.a, tc.b, tc.sm); got != tc.want {
			t.Errorf("verdict(%v → %v, %s) = %s, want %s", tc.a.Median, tc.b.Median, tc.sm.Better, got, tc.want)
		}
	}
}

// TestCompareFailures: timings that agree do not excuse a result that
// failed a check or failed more operations than the base.
func TestCompareFailures(t *testing.T) {
	spec := &benchSpec{EndToEnd: []specMetric{{Name: "query_p50_ms", Unit: "ms", Better: "lower", Bound: 0.10}}}
	spec.Workloads = append(spec.Workloads, struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}{Name: "ingest"})
	file := func(correct bool, failed int) *resultFile {
		return &resultFile{Workloads: map[string]aggWorkload{"ingest": {
			Correct: correct, Attempted: []int{100}, Failed: []int{failed},
			Metrics: map[string]aggMetric{"query_p50_ms": {Unit: "ms", Median: 10, Q1: 10, Q3: 10}},
		}}}
	}
	for _, tc := range []struct {
		name string
		a, b *resultFile
		want int
	}{
		{"same", file(true, 2), file(true, 2), 0},
		{"fewer failures", file(true, 2), file(true, 0), 0},
		{"more failures", file(true, 2), file(true, 3), 1},
		{"failed check", file(true, 0), file(false, 0), 1},
	} {
		if got := compareResults(io.Discard, spec, tc.a, tc.b); got != tc.want {
			t.Errorf("%s: %d regressed, want %d", tc.name, got, tc.want)
		}
	}
}
