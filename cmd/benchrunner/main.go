// Command benchrunner runs the internal/bench experiments at a
// configurable scale: the paper's evaluation tables and figures
// (Section 5) and the operational differentials (ingest, recover, repl,
// qos, loadgen), each of which exits non-zero when its gate
// fails.
//
// Usage:
//
//	benchrunner -exp all
//	benchrunner -exp fig5 -galaxy 60000 -tau 0.1
//	benchrunner -exp fig1,fig3,fig9 -timeout 30s
//
// `benchrunner -h` lists the experiments; an unknown name is a usage
// error (exit status 2), not an empty run.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"slices"
	"strings"
	"syscall"
	"time"

	"repro/internal/bench"
)

func main() {
	// Ctrl-C / SIGTERM cancels the context threaded through every
	// experiment, aborting in-flight solves and HTTP calls instead of
	// orphaning them.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	code := run(ctx, os.Args[1:], os.Stdout, os.Stderr)
	stop()
	os.Exit(code)
}

// experiment is one row of the name → func table that -exp selects
// from; the help string and the unknown-name error are derived from it.
type experiment struct {
	name string
	run  func() error
}

func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchrunner", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		galaxyN  = fs.Int("galaxy", 30000, "Galaxy dataset size")
		tpchN    = fs.Int("tpch", 60000, "TPC-H dataset size")
		seed     = fs.Int64("seed", 1, "generator seed")
		tau      = fs.Float64("tau", 0.10, "partition size threshold fraction")
		timeout  = fs.Duration("timeout", 60*time.Second, "per-ILP solver time limit")
		maxNodes = fs.Int("maxnodes", 50000, "per-ILP branch-and-bound node budget")
		maxCard  = fs.Int("fig1card", 5, "largest package cardinality for figure 1")
		sqlCap   = fs.Duration("fig1timeout", 10*time.Second, "naive SQL formulation timeout per cardinality")
		workers  = fs.Int("workers", 0, "worker pool size for parallel partitioning and batch evaluation (0 = GOMAXPROCS)")
		batchN   = fs.Int("batchn", 24, "number of queries in the batch experiment")
		lgAddr   = fs.String("paqld", "", "loadgen: base URL of a running paqld (empty = start one in-process)")
		lgN      = fs.Int("loadn", 64, "loadgen: number of concurrent queries")
		ingestN  = fs.Int("ingestops", 1000, "ingest: interleaved insert/delete operations before the differential check")
		recoverN = fs.Int("recoverops", 1000, "recover: acknowledged mutations before the randomized crash becomes possible")
		replN    = fs.Int("replops", 400, "repl: acknowledged leader mutations before the failover")
		replF    = fs.Int("followers", 2, "repl: follower count (minimum 2)")
		qosN     = fs.Int("qossolves", 48, "qos: measured solves per phase (quiescent and saturated)")
	)
	var env *bench.Env // generated once the -exp names are validated
	experiments := []experiment{
		{"fig1", func() error { _, err := env.Fig1(ctx, *maxCard, *sqlCap); return err }},
		{"fig3", func() error { _, err := env.Fig3(); return err }},
		{"fig4", func() error { _, err := env.Fig4(); return err }},
		{"fig5", func() error { _, err := env.Scalability(ctx, bench.Galaxy); return err }},
		{"fig6", func() error { _, err := env.Scalability(ctx, bench.TPCH); return err }},
		{"fig7", func() error { _, err := env.TauSweep(ctx, bench.Galaxy, 0.30); return err }},
		{"fig8", func() error { _, err := env.TauSweep(ctx, bench.TPCH, 1.00); return err }},
		{"fig9", func() error {
			if _, err := env.Coverage(ctx, bench.Galaxy); err != nil {
				return err
			}
			_, err := env.Coverage(ctx, bench.TPCH)
			return err
		}},
		{"fig6eps", func() error { _, err := env.EpsilonRepair(ctx, 1.0); return err }},
		{"recover", func() error {
			// Crash a durable store mid-ingest at a randomized point (torn
			// WAL tail included) and differentially verify the recovered
			// session against a never-crashed twin: version, row contents,
			// bit-equal SketchRefine objectives, zero acknowledged-mutation
			// loss, zero warm-start repartitions.
			_, err := env.Recover(ctx, bench.RecoverConfig{Ops: *recoverN})
			return err
		}},
		{"repl", func() error {
			// Leader + -followers WAL-shipped replicas under a randomized
			// mutation/solve workload with fault injection — stream cuts
			// mid-record, a leader snapshot that truncates the shipped log,
			// a follower crash-restart, and finally a leader kill with an
			// explicit promotion. Differentially verified against an
			// in-memory twin fed only by acknowledgements: zero
			// acked-mutation loss, cell-for-cell convergence, follower
			// objectives bit-equal to the twin's, lag back to zero after
			// every fault.
			_, err := env.Repl(ctx, bench.ReplConfig{Ops: *replN, Followers: *replF})
			return err
		}},
		{"qos", func() error {
			// Measure a steady solve stream quiescent, then again while a
			// saturating mutation stream holds the server's single ingest
			// slot and queue. Snapshot pinning must keep p95 solve latency
			// within 1.5x of the quiescent baseline, every solve must report
			// a version the dataset actually passed through, and the worst
			// snapshot-pin wait must stay inside the stall budget — "ingest
			// never blocks solves", measured.
			_, err := env.QoS(ctx, bench.QoSConfig{Solves: *qosN})
			return err
		}},
		{"ingest", func() error {
			// Apply -ingestops interleaved inserts/deletes to a live Galaxy
			// session (incremental partition maintenance, zero rebuilds), then
			// differentially check every workload query against a partitioning
			// rebuilt from scratch over the same final data: objectives must
			// stay within the reported quality bound.
			_, err := env.Ingest(ctx, bench.IngestConfig{Ops: *ingestN})
			return err
		}},
		{"loadgen", func() error {
			// Fire -loadn concurrent mixed queries (direct + sketchrefine,
			// feasible + infeasible) at a paqld and differentially check every
			// response against in-process engine evaluations. With -paqld set,
			// the target must have been started with matching
			// -galaxy/-tpch/-seed/-tau flags. The run also validates the
			// /metrics exposition mid-burst, cross-checks /stats against
			// /metrics, and gates tracing overhead at 5% of p95.
			_, err := env.LoadGen(ctx, bench.LoadGenConfig{Addr: *lgAddr, N: *lgN})
			return err
		}},
		{"batch", func() error {
			// Sequential baseline, then the configured worker pool. Each run
			// builds its own partitioning at that worker count (so the
			// partition column is measured at the same setting as the batch)
			// and shares it across the run's queries; objectives are
			// identical for every setting — only the wall clock differs.
			for _, ds := range []bench.Dataset{bench.Galaxy, bench.TPCH} {
				if _, err := env.Batch(ctx, ds, *batchN, 1); err != nil {
					return err
				}
				if *workers == 1 {
					continue // the pooled run would duplicate the baseline
				}
				if _, err := env.Batch(ctx, ds, *batchN, *workers); err != nil {
					return err
				}
			}
			return nil
		}},
	}
	names := make([]string, len(experiments))
	for i, ex := range experiments {
		names[i] = ex.name
	}
	valid := strings.Join(names, ",")
	exps := fs.String("exp", "all", "comma-separated experiments ("+valid+") or all")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	// Reject unknown names before any dataset is generated: a typo must
	// not turn a CI gate into a green no-op.
	want := map[string]bool{}
	for _, name := range strings.Split(*exps, ",") {
		name = strings.TrimSpace(strings.ToLower(name))
		if name != "all" && !slices.Contains(names, name) {
			fmt.Fprintf(stderr, "benchrunner: unknown experiment %q (valid: %s, all)\n", name, valid)
			return 2
		}
		want[name] = true
	}

	var err error
	env, err = bench.NewEnv(bench.Config{
		GalaxyN:   *galaxyN,
		TPCHN:     *tpchN,
		Seed:      *seed,
		TauFrac:   *tau,
		TimeLimit: *timeout,
		MaxNodes:  *maxNodes,
		Gap:       1e-4,
		Workers:   *workers,
		Out:       stdout,
	})
	if err != nil {
		fmt.Fprintln(stderr, "benchrunner:", err)
		return 1
	}
	for _, ex := range experiments {
		if !want["all"] && !want[ex.name] {
			continue
		}
		fmt.Fprintf(stdout, "\n==== %s ====\n", ex.name)
		start := time.Now()
		if err := ex.run(); err != nil {
			fmt.Fprintf(stderr, "%s: %v\n", ex.name, err)
			return 1
		}
		fmt.Fprintf(stdout, "(%s finished in %v)\n", ex.name, time.Since(start).Round(time.Millisecond))
	}
	return 0
}
