// Command paqbench is the repository's benchmark: four named workloads
// (direct, sketchrefine, ingest, serve), the end-to-end metrics a caller
// of the system sees on all of them, and — in a traced run — a
// per-layer ladder of timings taken from outside each layer's public
// functions. See benchmarks/README.md.
//
//	go run ./benchmarks/paqbench -workload sketchrefine -seed 1
//	go run ./benchmarks/paqbench -workload all -runs 3 -trace 1 -out run.json
//	go run ./benchmarks/paqbench -compare run.json
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"syscall"

	"repro/paq"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	code := run(ctx, os.Args[1:], os.Stdout, os.Stderr)
	stop()
	os.Exit(code)
}

// run is main without the process exit, so the smoke test can call it.
func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("paqbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var cfg config
	var trace, runs int
	var compare bool
	fs.StringVar(&cfg.workload, "workload", "", "workload to run: direct, sketchrefine, ingest, serve, or all")
	fs.Int64Var(&cfg.seed, "seed", 1, "traffic seed: statement order, mutation batches, request mix")
	fs.IntVar(&cfg.seconds, "seconds", 10, "nominal length of each timed phase; scales the operation counts")
	fs.IntVar(&trace, "trace", 0, "1 runs the traced variant and reports the per-layer metrics")
	fs.StringVar(&cfg.scale, "scale", "full", "full, or tiny for the smoke test")
	fs.StringVar(&cfg.out, "out", "", "also write the results to this JSON file (and trace.json beside it with -trace 1)")
	fs.StringVar(&cfg.workDir, "workdir", ".bench_build", "directory under which the run keeps its scratch files")
	fs.IntVar(&runs, "runs", 1, "with -workload all: how many times each workload runs")
	fs.BoolVar(&compare, "compare", false, "compare two result files: -compare [a.json] b.json (a defaults to benchmarks/baseline.json)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	cfg.trace = trace != 0
	if compare {
		return runCompare(fs.Args(), stdout, stderr)
	}
	if cfg.seconds < 1 || runs < 1 || (cfg.scale != "full" && cfg.scale != "tiny") {
		fmt.Fprintln(stderr, "paqbench: -seconds and -runs must be at least 1, -scale full or tiny")
		return 2
	}
	// Load comes from one process on at most two cores.
	runtime.GOMAXPROCS(min(runtime.NumCPU(), 2))

	if cfg.workload == "all" {
		return runAll(ctx, cfg, runs, stdout, stderr)
	}
	rec, err := runOne(ctx, cfg, stdout)
	if err != nil {
		fmt.Fprintf(stderr, "paqbench: %s: %v\n", cfg.workload, err)
		return 1
	}
	if !rec.Correct {
		return 1
	}
	return 0
}

// runRecord is one run of one workload, as written to -out and as
// -workload all collects it from its children.
type runRecord struct {
	Workload   string            `json:"workload"`
	Seed       int64             `json:"seed"`
	Traced     bool              `json:"traced"`
	Correct    bool              `json:"correct"`
	Attempted  int               `json:"attempted"`
	Failed     int               `json:"failed"`
	Classes    map[string]int    `json:"error_classes,omitempty"`
	Observed   map[string]int    `json:"observed,omitempty"` // outcomes of the ingest sweep, by class
	Violations []string          `json:"violations,omitempty"`
	Metrics    map[string]metric `json:"metrics"`
	Samples    map[string]int    `json:"samples,omitempty"`
	Env        environment       `json:"env"`
}

// environment is what a reader needs to place the numbers.
type environment struct {
	NProc       int    `json:"nproc"`
	GOMAXPROCS  int    `json:"gomaxprocs"`
	Workers     int    `json:"workers"`
	Clients     int    `json:"clients"`
	Go          string `json:"go"`
	FsyncPolicy string `json:"fsync_policy"`
	Scale       string `json:"scale"`
	Seconds     int    `json:"seconds"`
	Sizes       sizes  `json:"sizes"`
}

func environmentOf(cfg config, sz sizes) environment {
	return environment{
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), Workers: workers(), Clients: serveClients,
		Go: runtime.Version(), FsyncPolicy: fsyncPolicy, Scale: cfg.scale, Seconds: cfg.seconds, Sizes: sz,
	}
}

// runOne runs one workload in this process and prints its metrics, one
// row each, then the result line.
func runOne(ctx context.Context, cfg config, stdout io.Writer) (*runRecord, error) {
	sz := sizesFor(cfg.scale, cfg.seconds)
	if cfg.trace {
		sz.Setups = 1 // set-up time is an end-to-end metric; a traced run does not report it
	}
	if err := os.MkdirAll(cfg.workDir, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(cfg.workDir, "paqbench-"+cfg.workload+"-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)

	e := &env{cfg: cfg, sz: sz, dir: dir, res: newResult()}
	if cfg.trace {
		e.rec = newRecorder()
	}
	switch cfg.workload {
	case "direct":
		err = e.runSolve(ctx, paq.MethodDirect)
	case "sketchrefine":
		err = e.runSolve(ctx, paq.MethodSketchRefine)
	case "ingest":
		err = e.runIngest(ctx)
	case "serve":
		err = e.runServe(ctx)
	default:
		return nil, fmt.Errorf("unknown workload %q (have %v and all)", cfg.workload, workloadNames)
	}
	if err == nil && cfg.trace {
		err = e.ladder(ctx)
	}
	if err == nil {
		err = ctx.Err()
	}
	if err != nil {
		return nil, err
	}
	res := e.res
	res.set("bench.datagen_s", secs(e.datagen), "s")
	res.set("bench.reference_s", secs(e.reference), "s")
	res.set("bench.failed_frac", float64(res.failed)/float64(max(1, res.attempted)), "ratio")

	defs := endToEnd
	if cfg.trace {
		defs = perLayer
	}
	rec := &runRecord{
		Workload: cfg.workload, Seed: cfg.seed, Traced: cfg.trace,
		Correct: res.nViolation == 0, Attempted: res.attempted, Failed: res.failed,
		Classes: res.classes, Observed: res.observed, Violations: res.violations,
		Metrics: make(map[string]metric, len(defs)), Samples: make(map[string]int),
		Env: environmentOf(cfg, sz),
	}
	for _, d := range defs {
		m, ok := res.metrics[d.name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", d.name)
		}
		if m.Unit != d.unit {
			return nil, fmt.Errorf("metric %s measured in %s, declared in %s", d.name, m.Unit, d.unit)
		}
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return nil, fmt.Errorf("metric %s is %v", d.name, m.Value)
		}
		rec.Metrics[d.name] = m
		if n, ok := res.samples[d.name]; ok {
			rec.Samples[d.name] = n
		}
	}

	if cfg.out != "" {
		if err := writeJSON(cfg.out, rec); err != nil {
			return nil, err
		}
		if e.rec != nil {
			if err := e.rec.write(filepath.Join(filepath.Dir(cfg.out), "trace.json"), cfg.workload, cfg.seed); err != nil {
				return nil, err
			}
		}
	}
	printRun(stdout, rec, defs)
	return rec, nil
}

// printRun prints one row per metric, then anything that failed, then —
// as the last line — the result object.
func printRun(w io.Writer, rec *runRecord, defs []metricDef) {
	env := rec.Env
	fmt.Fprintf(w, "# paqbench %s seed=%d scale=%s seconds=%d traced=%v\n",
		rec.Workload, rec.Seed, env.Scale, env.Seconds, rec.Traced)
	fmt.Fprintf(w, "# nproc=%d GOMAXPROCS=%d workers<=%d clients<=%d %s; fsync: %s\n",
		env.NProc, env.GOMAXPROCS, env.Workers, env.Clients, env.Go, env.FsyncPolicy)
	for _, d := range defs {
		m := rec.Metrics[d.name]
		row := fmt.Sprintf("%-13s %-38s %16.6f %s", rec.Workload, d.name, m.Value, m.Unit)
		if n, ok := rec.Samples[d.name]; ok {
			row += fmt.Sprintf("  (n=%d)", n)
		}
		fmt.Fprintln(w, row)
	}
	for _, c := range sortedKeys(rec.Classes) {
		fmt.Fprintf(w, "# failed: %d × %s\n", rec.Classes[c], c)
	}
	for _, c := range sortedKeys(rec.Observed) {
		fmt.Fprintf(w, "# observed on the mutated table: %d × %s\n", rec.Observed[c], c)
	}
	for _, v := range rec.Violations {
		fmt.Fprintf(w, "# check failed: %s\n", v)
	}
	line, _ := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{rec.Correct, rec.Attempted, rec.Failed, rec.Metrics})
	fmt.Fprintln(w, string(line))
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func readJSON(path string, v any) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(data, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}
