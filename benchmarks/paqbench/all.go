package main

import (
	"context"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
)

// aggMetric is one metric over the runs of a result file: the median,
// the quartiles as the driver computes them, and every run's value.
type aggMetric struct {
	Unit   string    `json:"unit"`
	Median float64   `json:"median"`
	Q1     float64   `json:"q1"`
	Q3     float64   `json:"q3"`
	Runs   []float64 `json:"runs"`
}

// spread is the distance between the quartiles as a share of the median.
func (m aggMetric) spread() float64 {
	if m.Median == 0 {
		return 0
	}
	return (m.Q3 - m.Q1) / math.Abs(m.Median)
}

// aggWorkload is one workload's runs.
type aggWorkload struct {
	Correct   bool                 `json:"correct"`
	Attempted []int                `json:"attempted"`
	Failed    []int                `json:"failed"`
	Classes   map[string]int       `json:"error_classes,omitempty"`
	Observed  map[string]int       `json:"observed,omitempty"` // ingest sweep outcomes over the traced runs
	Metrics   map[string]aggMetric `json:"metrics"`
}

// resultFile is what -workload all writes to -out, and what
// benchmarks/baseline.json is.
type resultFile struct {
	Seed      int64                  `json:"seed"`
	Runs      int                    `json:"runs"`
	Env       environment            `json:"env"`
	Workloads map[string]aggWorkload `json:"workloads"`
}

// runAll runs every workload `runs` times, each run in a fresh process:
// peak memory is per process, and one workload's caches must not warm
// another's. With -trace 1 every run is followed by its traced twin.
func runAll(ctx context.Context, cfg config, runs int, stdout, stderr io.Writer) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintf(stderr, "paqbench: %v\n", err)
		return 1
	}
	if err := os.MkdirAll(cfg.workDir, 0o755); err != nil {
		fmt.Fprintf(stderr, "paqbench: %v\n", err)
		return 1
	}
	tmp, err := os.MkdirTemp(cfg.workDir, "paqbench-all-")
	if err != nil {
		fmt.Fprintf(stderr, "paqbench: %v\n", err)
		return 1
	}
	defer os.RemoveAll(tmp)

	out := resultFile{
		Seed: cfg.seed, Runs: runs,
		Env:       environmentOf(cfg, sizesFor(cfg.scale, cfg.seconds)),
		Workloads: make(map[string]aggWorkload),
	}
	code := 0
	for _, name := range workloadNames {
		agg := aggWorkload{Correct: true, Classes: map[string]int{}, Observed: map[string]int{}, Metrics: map[string]aggMetric{}}
		values := make(map[string][]float64)
		units := make(map[string]string)
		for r := 0; r < runs; r++ {
			for _, traced := range []bool{false, true} {
				if traced && !cfg.trace {
					continue
				}
				recPath := filepath.Join(tmp, "run.json")
				args := []string{
					"-workload", name,
					"-seed", strconv.FormatInt(cfg.seed, 10),
					"-seconds", strconv.Itoa(cfg.seconds),
					"-scale", cfg.scale, "-workdir", cfg.workDir, "-out", recPath,
				}
				if traced {
					args = append(args, "-trace", "1")
				}
				cmd := exec.CommandContext(ctx, self, args...)
				cmd.Stderr = stderr
				runErr := cmd.Run() // Run waits for the child to exit
				var rec runRecord
				if err := readJSON(recPath, &rec); err != nil {
					fmt.Fprintf(stderr, "paqbench: %s run %d: %v (%v)\n", name, r+1, runErr, err)
					agg.Correct = false
					code = 1
					continue
				}
				os.Remove(recPath)
				if traced && cfg.out != "" {
					// The last traced run's spans stay beside -out.
					from := filepath.Join(tmp, "trace.json")
					to := filepath.Join(filepath.Dir(cfg.out), "trace-"+name+".json")
					if err := os.Rename(from, to); err != nil {
						fmt.Fprintf(stderr, "paqbench: %v\n", err)
					}
				}
				if runErr != nil || !rec.Correct {
					agg.Correct = false
					code = 1
				}
				if !traced {
					agg.Attempted = append(agg.Attempted, rec.Attempted)
					agg.Failed = append(agg.Failed, rec.Failed)
					for c, n := range rec.Classes {
						agg.Classes[c] += n
					}
				}
				for c, n := range rec.Observed {
					agg.Observed[c] += n
				}
				for mname, m := range rec.Metrics {
					values[mname] = append(values[mname], m.Value)
					units[mname] = m.Unit
				}
			}
		}
		for mname, v := range values {
			q1, q3 := quartiles(v)
			agg.Metrics[mname] = aggMetric{Unit: units[mname], Median: median(v), Q1: q1, Q3: q3, Runs: v}
		}
		out.Workloads[name] = agg
		printAgg(stdout, name, agg, cfg.trace)
	}
	if cfg.out != "" {
		if err := writeJSON(cfg.out, out); err != nil {
			fmt.Fprintf(stderr, "paqbench: %v\n", err)
			return 1
		}
	}
	return code
}

// printAgg prints one row per metric of a workload: median, quartiles,
// unit, number of runs.
func printAgg(w io.Writer, name string, agg aggWorkload, traced bool) {
	defs := endToEnd
	if traced {
		defs = append(append([]metricDef(nil), endToEnd...), perLayer...)
	}
	for _, d := range defs {
		m, ok := agg.Metrics[d.name]
		if !ok {
			continue
		}
		fmt.Fprintf(w, "%-13s %-38s %16.6f %-6s q1 %.6f q3 %.6f (runs=%d)\n",
			name, d.name, m.Median, m.Unit, m.Q1, m.Q3, len(m.Runs))
	}
	fmt.Fprintf(w, "%-13s attempted %v failed %v correct %v\n", name, agg.Attempted, agg.Failed, agg.Correct)
	for _, c := range sortedKeys(agg.Classes) {
		fmt.Fprintf(w, "%-13s failed: %d × %s\n", name, agg.Classes[c], c)
	}
	for _, c := range sortedKeys(agg.Observed) {
		fmt.Fprintf(w, "%-13s observed on the mutated table: %d × %s\n", name, agg.Observed[c], c)
	}
}
