package repro

import (
	"encoding/json"
	"os"
	"testing"
)

// TestPerfTrajectory holds BENCH_paqbench.json, the committed record of
// paired paqbench runs, to its shape: every record names its PR, commit,
// parent, seed, host and Go version, gives each workload's five
// end-to-end medians and IQR-over-median per side, and the counts that
// repeat exactly; records only append, so PR numbers strictly increase.
// A value a backfilled record's source never stated is null, not absent.
func TestPerfTrajectory(t *testing.T) {
	raw, err := os.ReadFile("BENCH_paqbench.json")
	if err != nil {
		t.Fatal(err)
	}
	var file struct {
		Records []map[string]json.RawMessage `json:"records"`
	}
	if err := json.Unmarshal(raw, &file); err != nil {
		t.Fatalf("BENCH_paqbench.json does not parse: %v", err)
	}
	if len(file.Records) == 0 {
		t.Fatal("BENCH_paqbench.json holds no records")
	}
	metrics := []string{"setup_s", "query_p50_ms", "queries_per_s", "objective_gap", "mem_peak_mb"}
	// has reports whether obj, a JSON object, has every key, and decodes it.
	has := func(what string, obj json.RawMessage, keys ...string) map[string]json.RawMessage {
		var m map[string]json.RawMessage
		if err := json.Unmarshal(obj, &m); err != nil {
			t.Errorf("%s: not an object: %v", what, err)
			return nil
		}
		for _, k := range keys {
			if _, ok := m[k]; !ok {
				t.Errorf("%s: no %q", what, k)
			}
		}
		return m
	}
	lastPR := 0
	for i, rec := range file.Records {
		raw, _ := json.Marshal(rec)
		has("record", raw, "pr", "commit", "parent", "seed", "pairs", "nproc", "go", "workloads", "counts")
		var pr int
		if err := json.Unmarshal(rec["pr"], &pr); err != nil || pr <= lastPR {
			t.Errorf("record %d: pr %s does not follow %d: records only append", i, rec["pr"], lastPR)
		}
		lastPR = pr
		wls := has("workloads", rec["workloads"], "direct", "sketchrefine", "ingest", "serve")
		for name, wl := range wls {
			sides := has(name, wl, "parent", "change")
			for side, v := range sides {
				parts := has(name+"/"+side, v, "medians", "iqr_over_median")
				has(name+"/"+side+"/medians", parts["medians"], metrics...)
				has(name+"/"+side+"/iqr_over_median", parts["iqr_over_median"], metrics...)
			}
		}
		has("counts", rec["counts"], "ilp.nodes", "lp.root_iterations", "sketchrefine.subproblems", "partition.groups", "objective_gap")
	}
}
