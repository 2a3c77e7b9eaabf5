// Command paqld serves package queries over JSON/HTTP: a long-lived
// process that preloads datasets, builds their quad-tree partitionings
// once, and then evaluates PaQL posted to /query against warm state.
//
// Usage:
//
//	paqld -addr :8080 -galaxy 30000 -tpch 60000
//	paqld -addr :8080 -load stocks=stocks.csv -load meals=meals.csv
//
// Datasets come from the synthetic benchmark generators (-galaxy/-tpch,
// 0 disables) and/or typed CSV files (-load name=path, repeatable; the
// header format is name:type as written by datagen and relation.WriteCSV).
//
// Endpoints:
//
//	POST /query                 {"dataset":"galaxy","query":"SELECT PACKAGE(G) ...",
//	                             "method":"sketchrefine","timeout_ms":10000}
//	POST /datasets/{name}/rows  {"insert":[[...]],"delete":[7,12],
//	                             "update":[{"row":3,"values":[...]}]} — live
//	                             ingestion: partitionings are maintained
//	                             incrementally (never rebuilt) and stale cached
//	                             solutions invalidated; responses carry the new
//	                             dataset version
//	GET  /stats                 service counters, cache hits/invalidations, dataset
//	                            versions, partition-maintenance ops, solve times
//	GET  /datasets              registered datasets (schema, version, partitioning)
//	GET  /healthz               liveness
//
// Admission control runs two QoS classes — solves (-inflight, -queue)
// and mutations (-ingest-inflight, -ingest-queue) — with per-dataset
// fair sharing inside each; overflow sheds with 429, and a deadline
// that fires while queued returns 504. Solves execute against pinned
// copy-on-write snapshots, so an ingestion burst saturating its class
// never blocks them (see docs/CONCURRENCY.md). Each request's deadline
// maps to context cancellation reaching into the solver;
// SIGINT/SIGTERM drains in-flight solves, then flushes every durable
// dataset (final snapshot) before exiting.
//
// With -data-dir, datasets are durable: every mutation batch is
// write-ahead logged before it is acknowledged, and a restart recovers
// each dataset — snapshot + WAL replay — with its partitionings
// warm-started instead of rebuilt. Datasets found under -data-dir that
// no flag names are recovered and served too. A background maintenance
// loop (-maintain-every) compacts datasets whose tombstone ratio
// exceeds 25% and snapshots datasets whose WAL outgrows 8 MiB, and on
// the same cadence runs the partitioning advisor: hot attribute sets
// mined from the query log are pre-warmed, cold warm sets evicted,
// and the advisor's learned state persisted so a restart keeps its
// tuning (see docs/ADVISOR.md). See docs/PERSISTENCE.md.
//
// A durable paqld also serves the replication endpoints (GET
// /repl/wal, GET /repl/snapshot, POST /repl/fence, POST
// /repl/promote), so any instance can act as a leader. Started with
// -follow <leader URL>, paqld is a follower instead: it bootstraps
// every leader dataset from a snapshot, tails the leader's WAL
// (cadence -repl-poll), serves read/solve traffic from the replicated
// state (mutations are refused with 503), reports per-dataset
// replication lag under /stats, and becomes a leader itself on POST
// /repl/promote. Leader epochs and fences persist in
// <data-dir>/repl_state.json, so a fenced ex-leader restarts read-only
// instead of splitting the brain. See docs/REPLICATION.md.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net/http"
	// Registers the profiling handlers on http.DefaultServeMux; they are
	// only reachable when -pprof-addr binds a listener to it.
	_ "net/http/pprof"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"repro/internal/obs"
	"repro/internal/relation"
	"repro/internal/repl"
	"repro/internal/server"
	"repro/internal/store"
	"repro/internal/workload"
	"repro/paq"
)

// loadFlags collects repeated -load name=path flags.
type loadFlags []string

func (l *loadFlags) String() string { return strings.Join(*l, ",") }
func (l *loadFlags) Set(v string) error {
	*l = append(*l, v)
	return nil
}

func main() {
	var loads loadFlags
	var (
		addr     = flag.String("addr", ":8080", "listen address")
		galaxyN  = flag.Int("galaxy", 30000, "preload the synthetic Galaxy dataset at this size (0 disables)")
		tpchN    = flag.Int("tpch", 0, "preload the synthetic TPC-H dataset at this size (0 disables)")
		seed     = flag.Int64("seed", 1, "generator seed for synthetic datasets")
		tau      = flag.Float64("tau", 0.10, "partition size threshold as a fraction of each dataset")
		workers  = flag.Int("workers", 0, "partition-build worker pool (0 = GOMAXPROCS)")
		timeout  = flag.Duration("timeout", 30*time.Second, "default per-request evaluation deadline")
		maxTime  = flag.Duration("maxtimeout", 5*time.Minute, "cap on client-requested deadlines")
		maxNodes = flag.Int("maxnodes", paq.DefaultNodeLimit, "solver branch-and-bound node budget per ILP")
		inflight = flag.Int("inflight", 0, "max concurrently evaluating queries (0 = GOMAXPROCS)")
		queue    = flag.Int("queue", 0, "max queries queued beyond -inflight (0 = 4x inflight, -1 = none)")
		ingestIF = flag.Int("ingest-inflight", 0, "max concurrently applying mutation batches, a separate QoS class from -inflight (0 = same as -inflight)")
		ingestQ  = flag.Int("ingest-queue", 0, "max mutation batches queued beyond -ingest-inflight (0 = 4x ingest-inflight, -1 = none)")
		dataDir  = flag.String("data-dir", "", "durability root: per-dataset WAL + snapshots under <dir>/<name> (empty = in-memory only)")
		maintEv  = flag.Duration("maintain-every", 15*time.Second, "background maintenance cadence (tombstone compaction, WAL-driven snapshots); 0 disables")
		follow   = flag.String("follow", "", "run as a follower of this leader paqld base URL (requires -data-dir; dataset flags are ignored)")
		replPoll = flag.Duration("repl-poll", 250*time.Millisecond, "follower: WAL tail poll cadence")
		slowMS   = flag.Int64("slow-ms", 0, "slow-query threshold in milliseconds: solves at or above it log one JSON line (query, plan, span tree) to stderr; 0 disables")
		pprofAdr = flag.String("pprof-addr", "", "serve net/http/pprof on this address (empty disables; keep it off the public listener)")
	)
	flag.Var(&loads, "load", "load a CSV dataset as name=path (repeatable)")
	flag.Parse()

	if err := run(*addr, loads, *galaxyN, *tpchN, *seed, *tau, *workers,
		*timeout, *maxTime, *maxNodes, *inflight, *queue, *ingestIF, *ingestQ, *dataDir, *maintEv, *follow, *replPoll,
		*slowMS, *pprofAdr); err != nil {
		fmt.Fprintln(os.Stderr, "paqld:", err)
		os.Exit(1)
	}
}

func run(addr string, loads []string, galaxyN, tpchN int, seed int64, tau float64,
	workers int, timeout, maxTime time.Duration, maxNodes, inflight, queue, ingestIF, ingestQ int,
	dataDir string, maintEvery time.Duration, follow string, replPoll time.Duration,
	slowMS int64, pprofAddr string) error {
	srv := server.New(server.Config{
		MaxInFlight:       inflight,
		MaxQueued:         queue,
		IngestMaxInFlight: ingestIF,
		IngestMaxQueued:   ingestQ,
		DefaultTimeout:    timeout,
		MaxTimeout:        maxTime,
		SlowQuery:         time.Duration(slowMS) * time.Millisecond,
		SlowQueryLog:      os.Stderr,
	})
	// Process-level gauges (goroutines, heap, GC pause) join the solve
	// counters on GET /metrics.
	obs.RegisterRuntimeMetrics(srv.Metrics())
	if pprofAddr != "" {
		go func() {
			log.Printf("pprof listening on %s", pprofAddr)
			if err := http.ListenAndServe(pprofAddr, nil); err != nil {
				log.Printf("pprof: %v", err)
			}
		}()
	}
	dcfg := server.DatasetConfig{
		TauFrac:   tau,
		Workers:   workers,
		Seed:      seed,
		TimeLimit: maxTime,
		MaxNodes:  maxNodes,
		Gap:       1e-4,
		DataDir:   dataDir,
	}

	if follow != "" && dataDir == "" {
		return fmt.Errorf("-follow requires -data-dir (followers bootstrap into a durable store)")
	}

	registered := 0
	announce := func(name string, ds *server.Dataset, t0 time.Time) error {
		srv.Register(ds)
		registered++
		pi, err := ds.Partitioning()
		if err != nil {
			return fmt.Errorf("dataset %q: partitioning: %w", name, err)
		}
		if d := ds.DurStats(); d.Durable && (d.ReplayedOps > 0 || d.WarmPartitionings > 0) {
			log.Printf("dataset %q: recovered %d rows at version %d (%d WAL ops replayed, %d partitioning(s) warm-started) in %v",
				name, ds.Rel().Live(), ds.Version(), d.ReplayedOps, d.WarmPartitionings,
				time.Since(t0).Round(time.Millisecond))
			return nil
		}
		log.Printf("dataset %q: %d rows, %d groups, partitioned in %v",
			name, ds.Rel().Live(), pi.Groups, time.Since(t0).Round(time.Millisecond))
		return nil
	}
	hasState := func(name string) bool {
		if dataDir == "" {
			return false
		}
		return store.HasState(filepath.Join(dataDir, name))
	}
	// load runs only when no durable state exists for the dataset:
	// recovery would discard the seed relation unread, so generating
	// 10⁵ synthetic rows (or re-reading a CSV) on every warm restart
	// would waste exactly the boot time durability is meant to save.
	register := func(name string, load func() (*relation.Relation, error)) error {
		t0 := time.Now()
		var ds *server.Dataset
		var err error
		if hasState(name) {
			ds, err = server.OpenDataset(name, dcfg)
		} else {
			rel, lerr := load()
			if lerr != nil {
				return lerr
			}
			ds, err = server.NewDataset(name, rel, dcfg)
		}
		if err != nil {
			return err
		}
		return announce(name, ds, t0)
	}

	if follow != "" {
		galaxyN, tpchN, loads = 0, 0, nil // a follower's datasets come from its leader
	}
	if galaxyN > 0 {
		if err := register("galaxy", func() (*relation.Relation, error) {
			return workload.Galaxy(galaxyN, seed), nil
		}); err != nil {
			return err
		}
	}
	if tpchN > 0 {
		if err := register("tpch", func() (*relation.Relation, error) {
			return workload.TPCH(tpchN, seed), nil
		}); err != nil {
			return err
		}
	}
	for _, spec := range loads {
		name, path, ok := strings.Cut(spec, "=")
		if !ok || name == "" || path == "" {
			return fmt.Errorf("bad -load %q, want name=path", spec)
		}
		if err := register(name, func() (*relation.Relation, error) {
			rel, err := relation.LoadCSV(path)
			if err != nil {
				return nil, fmt.Errorf("loading %q: %w", path, err)
			}
			return rel, nil
		}); err != nil {
			return err
		}
	}
	if dataDir != "" && follow == "" {
		// Recover datasets left on disk by earlier runs that no flag
		// names this time: a restarted service must not silently drop
		// the data it was trusted with.
		entries, err := os.ReadDir(dataDir)
		if err != nil && !os.IsNotExist(err) {
			return fmt.Errorf("scanning -data-dir: %w", err)
		}
		for _, e := range entries {
			name := e.Name()
			if !e.IsDir() || srv.Dataset(name) != nil {
				continue
			}
			if !store.HasState(filepath.Join(dataDir, name)) {
				continue // not a dataset store (yet)
			}
			t0 := time.Now()
			ds, err := server.OpenDataset(name, dcfg)
			if err != nil {
				return fmt.Errorf("recovering dataset %q: %w", name, err)
			}
			if err := announce(name, ds, t0); err != nil {
				return err
			}
		}
	}
	if registered == 0 && follow == "" {
		return fmt.Errorf("no datasets (use -galaxy/-tpch, -load, or a -data-dir with recoverable state)")
	}

	// Every paqld is a replication node: leaders serve the WAL stream
	// and answer fencing; a follower bootstraps from its leader, tails
	// the shipped log, and can be promoted in place.
	role := repl.RoleLeader
	if follow != "" {
		role = repl.RoleFollower
	}
	node, err := repl.NewNode(srv, repl.Config{
		Role:         role,
		Leader:       follow,
		DataDir:      dataDir,
		Dataset:      dcfg,
		PollInterval: replPoll,
	})
	if err != nil {
		return err
	}
	// Epoch and fence state persist in <data-dir>/repl_state.json; say
	// so at boot, since a fenced node looks healthy until a write fails.
	if st := node.Stats(); st.FencedBy > 0 {
		log.Printf("replication: fenced by epoch %d — mutations refused until this node is re-pointed or promoted", st.FencedBy)
	} else if st.Epoch > 1 {
		log.Printf("replication: resuming at epoch %d", st.Epoch)
	}
	if follow != "" {
		t0 := time.Now()
		if err := node.Start(); err != nil {
			return fmt.Errorf("following %s: %w", follow, err)
		}
		registered = len(node.Stats().Tails)
		log.Printf("following %s: %d dataset(s) replicating (bootstrapped in %v)",
			follow, registered, time.Since(t0).Round(time.Millisecond))
	}

	maintDone := make(chan struct{})
	if maintEvery > 0 {
		ticker := time.NewTicker(maintEvery)
		go func() {
			defer ticker.Stop()
			for {
				select {
				case <-ticker.C:
					for _, action := range srv.MaintainOnce() {
						log.Printf("maintenance: %s", action)
					}
					for _, action := range srv.AdviseOnce() {
						log.Printf("advisor: %s", action)
					}
				case <-maintDone:
					return
				}
			}
		}()
	}

	httpSrv := &http.Server{
		Addr:              addr,
		Handler:           node.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
	}
	errCh := make(chan error, 1)
	go func() { errCh <- httpSrv.ListenAndServe() }()
	log.Printf("paqld listening on %s (%d dataset(s))", addr, registered)

	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, os.Interrupt, syscall.SIGTERM)
	select {
	case err := <-errCh:
		return err
	case sig := <-sigCh:
		log.Printf("received %v, draining in-flight solves", sig)
	}

	ctx, cancel := context.WithTimeout(context.Background(), maxTime+10*time.Second)
	defer cancel()
	close(maintDone)
	node.Stop() // stop tailing before the datasets flush and close
	if err := srv.Shutdown(ctx); err != nil {
		log.Printf("drain: %v", err)
	}
	err = httpSrv.Shutdown(ctx)
	// After the drain nothing is mutating: flush every durable dataset
	// with a final snapshot so the restart replays nothing and loses
	// nothing.
	if cerr := srv.CloseDatasets(); cerr != nil {
		log.Printf("flush: %v", cerr)
		if err == nil {
			err = cerr
		}
	} else if dataDir != "" {
		log.Printf("flushed durable datasets to %s", dataDir)
	}
	return err
}
