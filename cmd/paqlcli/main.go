// Command paqlcli evaluates a PaQL query against a CSV table through
// the paq SDK.
//
// Usage:
//
//	paqlcli -data table.csv [-query query.paql | -q "SELECT PACKAGE..."]
//	        [-data-dir state/] [-append extra.csv]
//	        [-method auto|naive|direct|sketchrefine]
//	        [-tau 0.1] [-timeout 60s] [-workers 0] [-deadline 0]
//	        [-explain] [-progress] [-trace] [-out pkg.csv]
//
// The CSV header uses name:type fields (type f=float, i=int, s=string), as
// written by the datagen tool and relation.WriteCSV. The chosen package is
// printed with its objective value and optionally saved as CSV.
//
// -data-dir makes the session durable: the first run seeds the
// directory from -data (WAL + snapshot, see docs/PERSISTENCE.md), and
// later runs reopen it instantly — dataset, version, and warm
// partitionings recovered from disk, no CSV load and no repartitioning
// (-data then becomes optional). Ingested rows (-append) persist
// across runs; the session is flushed with a final snapshot on exit.
// -append ingests the rows of another CSV (same column types) into the
// session before solving — the live-dataset path: the partitioning is
// maintained incrementally and the dataset version advances, exactly as
// paqld's POST /datasets/{name}/rows does.
// -explain prints the prepared statement's plan — the chosen method and
// why (including the adaptive advisor's decision: cold-start fallback,
// probe, or learned choice with per-method scores), the partitioning
// shape, and the ILP size — without solving.
// -progress streams improving incumbents (objective + elapsed time) to
// stderr while the solve runs, the SDK's anytime-results hook.
// -trace prints the execution's span tree to stderr after solving —
// where the time went: plan, snapshot pin, solve (sketch, each refine
// group, ILP iterations), objective — with per-span durations and each
// span's share of its parent.
//
// Exit status: 0 for a proven optimum; 1 for operational failures
// (I/O, infeasibility, timeouts); 2 for usage and PaQL parse errors —
// consistently, whether or not -explain is set — and for packages
// truncated by a solver budget (feasible but possibly suboptimal).
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"time"

	"repro/internal/relation"
	"repro/paq"
)

// options collects the command-line configuration of one run.
type options struct {
	dataPath   string
	dataDir    string
	appendPath string
	queryPath  string
	queryText  string
	method     string
	tauFrac    float64
	timeout    time.Duration
	maxNodes   int
	workers    int
	deadline   time.Duration
	explain    bool
	progress   bool
	trace      bool
	outPath    string
	verbose    bool
}

// usageError marks a command-line usage failure (missing/conflicting
// flags), which exits 2 like a parse failure.
type usageError struct{ msg string }

func (e usageError) Error() string { return e.msg }

// exitCode classifies a run outcome:
//
//	0 — success (proven optimum, or -explain printed a plan)
//	1 — operational failure (I/O, infeasible, timeout, solver failure)
//	2 — the user's input is at fault (usage or PaQL parse error), or the
//	    package is a budget-truncated incumbent (possibly suboptimal)
func exitCode(err error, truncated bool) int {
	switch {
	case err == nil && !truncated:
		return 0
	case err == nil:
		return 2
	default:
		var pe *paq.ParseError
		var ue usageError
		if errors.As(err, &pe) || errors.As(err, &ue) {
			return 2
		}
		return 1
	}
}

func main() {
	var o options
	flag.StringVar(&o.dataPath, "data", "", "CSV file holding the input relation (required unless -data-dir already holds state)")
	flag.StringVar(&o.dataDir, "data-dir", "", "durability directory: WAL + snapshots; reopens prepared sessions instantly")
	flag.StringVar(&o.appendPath, "append", "", "CSV file whose rows are ingested into the session before solving")
	flag.StringVar(&o.queryPath, "query", "", "file holding the PaQL query text")
	flag.StringVar(&o.queryText, "q", "", "inline PaQL query text")
	flag.StringVar(&o.method, "method", "auto", "evaluation method: auto, naive, direct, or sketchrefine")
	flag.Float64Var(&o.tauFrac, "tau", 0.10, "sketchrefine: partition size threshold as a fraction of the data")
	flag.DurationVar(&o.timeout, "timeout", 60*time.Second, "solver time limit per ILP")
	flag.IntVar(&o.maxNodes, "maxnodes", paq.DefaultNodeLimit, "solver branch-and-bound node budget per ILP")
	flag.IntVar(&o.workers, "workers", 0, "worker pool size for parallel partitioning (0 = GOMAXPROCS)")
	flag.DurationVar(&o.deadline, "deadline", 0, "overall evaluation deadline (0 = none)")
	flag.BoolVar(&o.explain, "explain", false, "print the statement's plan (method, partitioning, ILP size) without solving")
	flag.BoolVar(&o.progress, "progress", false, "stream improving incumbents to stderr while solving")
	flag.BoolVar(&o.trace, "trace", false, "print the execution's span tree (plan, pin, solve phases, ILP iterations) to stderr after solving")
	flag.StringVar(&o.outPath, "out", "", "write the package as CSV to this path")
	flag.BoolVar(&o.verbose, "v", false, "print evaluation statistics")
	flag.Parse()

	truncated, err := run(o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "paqlcli:", err)
	} else if truncated {
		// A budget-exhausted solve accepted a best-effort incumbent: the
		// package is feasible but possibly suboptimal. Report it loudly
		// and exit nonzero so scripts cannot mistake it for an optimum.
		fmt.Fprintln(os.Stderr, "paqlcli: warning: solver resource limit reached; the package is a truncated incumbent and may be suboptimal (raise -timeout/-maxnodes for a proven optimum)")
	}
	os.Exit(exitCode(err, truncated))
}

func run(o options) (truncated bool, err error) {
	if o.dataPath == "" && o.dataDir == "" {
		return false, usageError{"-data is required (or -data-dir with recoverable state)"}
	}
	src := o.queryText
	if src == "" {
		if o.queryPath == "" {
			return false, usageError{"provide a query with -query or -q"}
		}
		b, err := os.ReadFile(o.queryPath)
		if err != nil {
			return false, err
		}
		src = string(b)
	}
	method, err := paq.ParseMethod(o.method)
	if err != nil {
		return false, usageError{err.Error()}
	}

	opts := []paq.Option{
		paq.WithMethod(method),
		paq.WithTau(o.tauFrac),
		paq.WithTimeLimit(o.timeout),
		paq.WithNodeLimit(o.maxNodes),
		paq.WithWorkers(o.workers),
	}
	var source paq.Source
	if o.dataPath != "" {
		source = paq.CSV(o.dataPath)
	}
	if o.dataDir != "" {
		// Durable session: if the directory holds state the CSV is not
		// even read — the dataset, its version, and its warm
		// partitionings come back from the snapshot + WAL.
		opts = append(opts, paq.WithDurability(o.dataDir))
	}
	sess, err := paq.Open(source, opts...)
	if err != nil {
		return false, err
	}
	defer func() {
		// Flush-on-exit: fold this run's ingested rows into the snapshot.
		if cerr := sess.Close(); cerr != nil && err == nil {
			err = cerr
		}
	}()
	if o.appendPath != "" {
		if err := appendCSV(sess, o.appendPath); err != nil {
			return false, err
		}
	}
	stmt, err := sess.Prepare(src)
	if err != nil {
		return false, err
	}
	if o.explain || o.verbose {
		fmt.Println(stmt.Plan())
	}
	if o.explain {
		return false, nil
	}

	ctx := context.Background()
	if o.deadline > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, o.deadline)
		defer cancel()
	}
	var execOpts []paq.ExecOption
	if o.progress {
		execOpts = append(execOpts, paq.WithIncumbent(func(inc paq.Incumbent) {
			tagged := ""
			if inc.Sketch {
				tagged = " (sketch)"
			}
			fmt.Fprintf(os.Stderr, "incumbent %d: objective %g after %v (%d nodes)%s\n",
				inc.Seq, inc.Objective, inc.Elapsed.Round(time.Millisecond), inc.Nodes, tagged)
		}))
	}
	if o.trace {
		execOpts = append(execOpts, paq.WithTrace())
	}
	res, err := stmt.Execute(ctx, execOpts...)
	if err != nil {
		return false, err
	}
	if o.trace {
		writeTrace(os.Stderr, res.Trace())
	}
	// Budget-truncated incumbents surface through Result.Truncated; main
	// converts it into the warning and the nonzero exit.
	truncated = res.Truncated

	fmt.Printf("package: %d tuples (%d distinct), objective %g, %v\n",
		res.Size, res.Distinct, res.Objective, res.Time.Round(time.Millisecond))
	if o.verbose && res.Stats != nil {
		stats := res.Stats
		fmt.Printf("stats: %d subproblem(s), largest %d vars × %d rows, %d B&B nodes, %d LP iterations (%d warm / %d cold solves), %d incumbent(s)\n",
			stats.Subproblems, stats.Vars, stats.Rows, stats.SolverNodes, stats.LPIterations, stats.WarmSolves, stats.ColdSolves, res.Incumbents)
	}
	mat := res.Package().Materialize("package")
	if o.outPath != "" {
		if err := relation.SaveCSV(mat, o.outPath); err != nil {
			return false, err
		}
		fmt.Printf("wrote %s\n", o.outPath)
	} else {
		if err := relation.WriteCSV(mat, os.Stdout); err != nil {
			return false, err
		}
	}
	return truncated, nil
}

// appendCSV ingests every row of a CSV file (same column types as the
// session's relation) through the live-dataset path, printing the
// resulting dataset version and maintenance summary.
func appendCSV(sess *paq.Session, path string) error {
	extra, err := relation.LoadCSV(path)
	if err != nil {
		return err
	}
	rows := make([][]relation.Value, 0, extra.Len())
	for _, i := range extra.AllRows() {
		rows = append(rows, extra.Row(i))
	}
	ids, version, err := sess.InsertRows(rows)
	if err != nil {
		return fmt.Errorf("appending %s: %w", path, err)
	}
	ms := sess.MaintStats()
	fmt.Fprintf(os.Stderr, "paqlcli: appended %d row(s) from %s (dataset version %d; %d split(s), %d merge(s))\n",
		len(ids), path, version, ms.Splits, ms.Merges)
	return nil
}
