// Package bench is the experiment harness. It has two halves.
//
// The paper half regenerates every table and figure of the evaluation
// (Section 5): each Fig*/Scalability/TauSweep/Coverage/Batch method runs
// one experiment at a configurable scale, prints a paper-style table,
// and returns the measurements for programmatic inspection (the root
// bench_test.go wraps them as Go benchmarks). The protocol follows
// Section 5.1: per-dataset workloads of seven package queries, offline
// partitioning on the union of the workload's query attributes with
// τ = 10% of the dataset and no radius condition, response time measured
// as translate + load + solve (package materialization excluded), and
// the empirical approximation ratio ObjD/ObjS for maximization queries
// (ObjS/ObjD for minimization).
//
// The operational half is five differentials over the live system —
// Ingest, Recover, Repl, QoS, LoadGen — each a gate that returns an
// error when a guarantee breaks (maintained vs rebuilt partitioning,
// recovered vs never-crashed twin, replica vs acknowledgement-fed twin,
// saturated vs quiescent latency, paqld vs in-process answers). They share one kit (kit.go): one seeded mutation
// stream, one relation comparator, one solve differential, one loopback
// server, one JSON POST. They print their numbers and return them in
// their *Result; the perf trajectory itself is benchmarks/paqbench and
// its committed baseline, not this package.
//
// cmd/benchrunner exposes both halves on the command line. The harness
// consumes the solve path exclusively through the public paq SDK —
// sessions, prepared statements, row-subset executions — so it measures
// exactly what an embedding application would see.
package bench

import (
	"context"
	"fmt"
	"io"
	"math/rand"
	"sort"
	"time"

	"repro/internal/relation"
	"repro/internal/workload"
	"repro/paq"
)

// Config sets the experiment scale and budgets.
type Config struct {
	// GalaxyN and TPCHN are the synthetic dataset sizes (the paper used
	// 5.5M and 17.5M; defaults are laptop-scale).
	GalaxyN int
	TPCHN   int
	// Seed drives all data generation and sampling.
	Seed int64
	// TauFrac is the partition size threshold as a fraction of the
	// dataset (the paper's scalability experiments use 10%).
	TauFrac float64
	// TimeLimit, MaxNodes, and Gap are the per-ILP solver budgets for
	// both DIRECT and SketchRefine (the stand-in for the paper's CPLEX
	// memory ceiling and one-hour cap). DIRECT failures under this
	// budget reproduce the paper's missing data points.
	TimeLimit time.Duration
	MaxNodes  int
	Gap       float64
	// Workers bounds the goroutines used for parallel partitioning and
	// batch query evaluation; 0 means GOMAXPROCS, 1 forces sequential.
	// Results are identical for every setting.
	Workers int
	// Out receives the printed tables; nil discards them.
	Out io.Writer
}

func (c Config) withDefaults() Config {
	if c.GalaxyN == 0 {
		c.GalaxyN = 30000
	}
	if c.TPCHN == 0 {
		c.TPCHN = 60000
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.TauFrac == 0 {
		c.TauFrac = 0.10
	}
	if c.MaxNodes == 0 {
		c.MaxNodes = 50000
	}
	if c.Gap == 0 {
		c.Gap = 1e-4 // CPLEX's default relative MIP gap
	}
	if c.TimeLimit == 0 {
		c.TimeLimit = 60 * time.Second
	}
	if c.Out == nil {
		c.Out = io.Discard
	}
	return c
}

// Dataset identifies one of the two benchmark datasets.
type Dataset string

// The two benchmark datasets of Section 5.1.
const (
	Galaxy Dataset = "galaxy"
	TPCH   Dataset = "tpch"
)

// Env caches the generated datasets, per-query tables, and warm paq
// sessions across experiments.
type Env struct {
	cfg Config

	rels    map[Dataset]*relation.Relation
	queries map[Dataset][]workload.Query
	attrs   map[Dataset][]string
	// qtables caches the materialized per-query base tables (Figure 3).
	qtables map[Dataset]map[string]*relation.Relation
	// sessions caches one uncached-solve session per query table,
	// partitioned on the workload attributes at the default τ.
	sessions map[Dataset]map[string]*paq.Session
}

// NewEnv generates the datasets and workloads. Workload construction can
// fail (a dataset missing a workload attribute); the error is propagated
// so callers can report it instead of crashing.
func NewEnv(cfg Config) (*Env, error) {
	cfg = cfg.withDefaults()
	e := &Env{
		cfg:      cfg,
		rels:     make(map[Dataset]*relation.Relation),
		queries:  make(map[Dataset][]workload.Query),
		attrs:    make(map[Dataset][]string),
		qtables:  map[Dataset]map[string]*relation.Relation{Galaxy: {}, TPCH: {}},
		sessions: map[Dataset]map[string]*paq.Session{Galaxy: {}, TPCH: {}},
	}
	e.rels[Galaxy] = workload.Galaxy(cfg.GalaxyN, cfg.Seed)
	e.rels[TPCH] = workload.TPCH(cfg.TPCHN, cfg.Seed)
	var err error
	if e.queries[Galaxy], err = workload.GalaxyQueries(e.rels[Galaxy]); err != nil {
		return nil, err
	}
	if e.queries[TPCH], err = workload.TPCHQueries(e.rels[TPCH]); err != nil {
		return nil, err
	}
	e.attrs[Galaxy] = workload.WorkloadAttrs(e.queries[Galaxy])
	e.attrs[TPCH] = workload.WorkloadAttrs(e.queries[TPCH])
	return e, nil
}

// Config returns the effective configuration.
func (e *Env) Config() Config { return e.cfg }

// Queries returns the workload for a dataset.
func (e *Env) Queries(ds Dataset) []workload.Query { return e.queries[ds] }

// queryTable returns (and caches) the per-query base table.
func (e *Env) queryTable(ds Dataset, q workload.Query) *relation.Relation {
	if t, ok := e.qtables[ds][q.Name]; ok {
		return t
	}
	t := workload.QueryTable(e.rels[ds], q)
	e.qtables[ds][q.Name] = t
	return t
}

// sessionOpts are the protocol-wide session options: the configured
// budgets, and no solution cache — every measurement is a real solve.
func (e *Env) sessionOpts(extra ...paq.Option) []paq.Option {
	opts := []paq.Option{
		paq.WithTau(e.cfg.TauFrac),
		paq.WithWorkers(e.cfg.Workers),
		paq.WithTimeLimit(e.cfg.TimeLimit),
		paq.WithNodeLimit(e.cfg.MaxNodes),
		paq.WithGap(e.cfg.Gap),
		paq.WithoutCache(),
	}
	return append(opts, extra...)
}

// session returns (and caches) the paq session over a query table,
// partitioned on the dataset's workload attributes at the default τ.
func (e *Env) session(ds Dataset, q workload.Query) (*paq.Session, error) {
	if s, ok := e.sessions[ds][q.Name]; ok {
		return s, nil
	}
	s, err := paq.Open(paq.Table(e.queryTable(ds, q)),
		e.sessionOpts(paq.WithPartitionAttrs(e.attrs[ds]...), paq.WithSeed(e.cfg.Seed))...)
	if err != nil {
		return nil, fmt.Errorf("bench: %s/%s: %w", ds, q.Name, err)
	}
	e.sessions[ds][q.Name] = s
	return s, nil
}

// prepare compiles a workload query on its cached session with a fixed
// method.
func (e *Env) prepare(ds Dataset, q workload.Query, m paq.Method) (*paq.Stmt, error) {
	s, err := e.session(ds, q)
	if err != nil {
		return nil, err
	}
	stmt, err := s.Prepare(q.PaQL, paq.WithMethod(m))
	if err != nil {
		return nil, fmt.Errorf("bench: %s/%s: %w", ds, q.Name, err)
	}
	return stmt, nil
}

// Measurement is the outcome of one evaluation run.
type Measurement struct {
	Time      time.Duration
	Objective float64
	Err       error
}

// measure wraps one execution into a Measurement.
func measure(exec func() (*paq.Result, error)) Measurement {
	t0 := time.Now()
	res, err := exec()
	m := Measurement{Time: time.Since(t0), Err: err}
	if err == nil {
		m.Objective = res.Objective
	}
	return m
}

// runDirect evaluates a DIRECT statement over a row subset (nil = the
// whole base relation) under the experiment's context, so cancelling
// the experiment cancels the in-flight solve.
func (e *Env) runDirect(ctx context.Context, stmt *paq.Stmt, rows []int) Measurement {
	return measure(func() (*paq.Result, error) {
		if rows == nil {
			return stmt.Execute(ctx)
		}
		return stmt.Execute(ctx, paq.WithRows(rows))
	})
}

// runSketchRefine evaluates a SketchRefine statement over a row subset
// (restricting the warm partitioning), with a per-run refinement-order
// seed, under the experiment's context.
func (e *Env) runSketchRefine(ctx context.Context, stmt *paq.Stmt, rows []int, seed int64) Measurement {
	return measure(func() (*paq.Result, error) {
		opts := []paq.ExecOption{paq.WithExecSeed(seed)}
		if rows != nil {
			opts = append(opts, paq.WithRows(rows))
		}
		return stmt.Execute(ctx, opts...)
	})
}

// approxRatio computes the paper's empirical approximation ratio.
func approxRatio(maximize bool, objD, objS float64) float64 {
	if maximize {
		return objD / objS
	}
	return objS / objD
}

// meanMedian summarizes a ratio series.
func meanMedian(xs []float64) (mean, median float64) {
	if len(xs) == 0 {
		return 0, 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	total := 0.0
	for _, v := range s {
		total += v
	}
	mean = total / float64(len(s))
	if len(s)%2 == 1 {
		median = s[len(s)/2]
	} else {
		median = (s[len(s)/2-1] + s[len(s)/2]) / 2
	}
	return mean, median
}

// percentile returns the p-th percentile (0 ≤ p ≤ 1) of the series by
// nearest-rank, 0 for an empty series.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(p*float64(len(s)) + 0.5)
	if i < 1 {
		i = 1
	}
	if i > len(s) {
		i = len(s)
	}
	return s[i-1]
}

// sampleFraction draws a deterministic random subset of rows of the
// given fraction (the paper derives smaller datasets by randomly
// removing tuples).
func sampleFraction(n int, frac float64, seed int64) []int {
	if frac >= 1 {
		rows := make([]int, n)
		for i := range rows {
			rows[i] = i
		}
		return rows
	}
	rng := rand.New(rand.NewSource(seed))
	perm := rng.Perm(n)
	k := int(float64(n) * frac)
	rows := append([]int(nil), perm[:k]...)
	sort.Ints(rows)
	return rows
}

func fmtDur(d time.Duration) string {
	switch {
	case d <= 0:
		return "-"
	case d < time.Millisecond:
		return fmt.Sprintf("%.2fms", float64(d.Microseconds())/1000)
	case d < time.Second:
		return fmt.Sprintf("%dms", d.Milliseconds())
	default:
		return fmt.Sprintf("%.2fs", d.Seconds())
	}
}

func fmtMeasure(m Measurement) string {
	if m.Err != nil {
		return "FAIL"
	}
	return fmtDur(m.Time)
}
