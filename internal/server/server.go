// Package server implements paqld, the long-lived package-query service:
// a JSON-over-HTTP API that prepares, plans, and executes PaQL text
// against a registry of preloaded datasets with warm partitionings.
//
// The paper's thesis is that package queries belong *inside* the data
// system; this package is the serving layer that thesis implies. Each
// dataset is registered once — a paq session opened, its quad-tree
// partitioning built offline — and then every request reuses the warm
// session and its shared per-method solution caches, so repeated
// queries cost one cache lookup instead of an ILP solve.
//
// The server is built to survive adversarial, concurrent workloads:
//
//   - no user input can panic the process — parse/translate errors are
//     400s, unknown datasets 404s, infeasibility a structured verdict;
//   - admission control is two QoS classes — solve and ingest token
//     buckets with per-dataset fairness — so a mutation storm cannot
//     starve queries of admission (solves additionally run against
//     pinned relation snapshots, so ingest never blocks them mid-solve);
//     overflow of either class is refused immediately with 429 so load
//     sheds at the edge instead of piling onto the solver;
//   - every request carries a deadline mapped to context cancellation
//     that reaches the simplex iterations of an in-flight solve;
//   - shutdown drains in-flight solves before returning.
//
// EXPLAIN is first-class: a request with "explain": true returns the
// statement's typed plan — chosen method and why, partitioning shape,
// ILP size — without solving. Executions count their improving ILP
// incumbents (the anytime-results stream), surfaced per response and
// in aggregate at GET /stats.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/relation"
	"repro/paq"
)

// Config bounds the server's concurrency and per-request deadlines.
type Config struct {
	// MaxInFlight bounds concurrently evaluating queries; 0 means
	// GOMAXPROCS.
	MaxInFlight int
	// MaxQueued bounds requests admitted beyond MaxInFlight, waiting for
	// a solve slot. 0 means 4×MaxInFlight; negative means no queue (a
	// request either gets a slot immediately or is refused).
	MaxQueued int
	// IngestMaxInFlight bounds concurrently applying mutation batches —
	// the ingest QoS class, separate from the solve class so a
	// saturating mutation stream cannot consume solve slots (nor the
	// reverse). 0 means MaxInFlight.
	IngestMaxInFlight int
	// IngestMaxQueued bounds mutation requests waiting for an ingest
	// slot. 0 means 4×IngestMaxInFlight; negative means no queue.
	IngestMaxQueued int
	// DefaultTimeout applies when a request carries no timeout_ms;
	// 0 means 30s.
	DefaultTimeout time.Duration
	// MaxTimeout caps client-requested deadlines; 0 means 5m.
	MaxTimeout time.Duration
	// TombstoneRatio is the tombstoned fraction of a dataset's physical
	// rows above which the maintenance pass compacts it (reclaiming the
	// memory and, on durable datasets, snapshotting the result). 0 means
	// 0.25; negative disables ratio-driven compaction.
	TombstoneRatio float64
	// WALMaxBytes is the write-ahead log size above which the
	// maintenance pass snapshots a durable dataset (truncating the log).
	// 0 means 8 MiB; negative disables size-driven snapshots.
	WALMaxBytes int64
	// SlowQuery is the slow-query log threshold: an execution at or above
	// it, failed or not, emits one structured JSON line (query, plan,
	// dataset version, span tree, error) to SlowQueryLog. 0 disables the log. Enabling it turns on
	// tracing for every solve — the log wants the span tree — so set it
	// well above the typical solve time.
	SlowQuery time.Duration
	// SlowQueryLog receives the slow-query lines; nil disables the log
	// regardless of SlowQuery.
	SlowQueryLog io.Writer
}

func (c Config) withDefaults() Config {
	if c.MaxInFlight <= 0 {
		c.MaxInFlight = runtime.GOMAXPROCS(0)
	}
	if c.MaxQueued == 0 {
		c.MaxQueued = 4 * c.MaxInFlight
	}
	if c.MaxQueued < 0 {
		c.MaxQueued = 0
	}
	if c.IngestMaxInFlight <= 0 {
		c.IngestMaxInFlight = c.MaxInFlight
	}
	if c.IngestMaxQueued == 0 {
		c.IngestMaxQueued = 4 * c.IngestMaxInFlight
	}
	if c.IngestMaxQueued < 0 {
		c.IngestMaxQueued = 0
	}
	if c.DefaultTimeout <= 0 {
		c.DefaultTimeout = 30 * time.Second
	}
	if c.MaxTimeout <= 0 {
		c.MaxTimeout = 5 * time.Minute
	}
	if c.TombstoneRatio == 0 {
		c.TombstoneRatio = 0.25
	}
	if c.WALMaxBytes == 0 {
		c.WALMaxBytes = 8 << 20
	}
	return c
}

// Server is the paqld request handler: a dataset registry plus admission
// control and service counters. Create with New, register datasets, then
// serve Handler with net/http.
type Server struct {
	cfg   Config
	start time.Time

	mu       sync.RWMutex
	datasets map[string]*Dataset

	// solve and ingest are the two admission (QoS) classes: queries and
	// mutation batches hold slots from separate token buckets with
	// per-dataset fairness inside each (see qos.go).
	solve  *qosClass
	ingest *qosClass

	// lifeMu guards the drain state. A plain WaitGroup would be unsafe:
	// WaitGroup.Add may not race Wait, and a request can arrive at the
	// exact instant the last in-flight solve wakes a draining Shutdown.
	lifeMu   sync.Mutex
	active   int           // requests inside handleQuery
	draining bool          // no new requests admitted
	idle     chan struct{} // closed when draining and active == 0

	// replMu guards the replication hooks a repl.Node installs: a
	// mutation gate (refuse writes on followers and fenced leaders), a
	// stats block surfaced under /stats "replication", and the typed
	// gauge snapshot /metrics renders.
	replMu      sync.RWMutex
	mutGate     func() error
	replStats   func() any
	replMetrics func() ReplMetrics

	// reg is the metric registry behind GET /metrics. The counters below
	// are cells registered on it, so /stats and /metrics render the same
	// memory and cannot disagree.
	reg          *obs.Registry
	ctr          counters
	solveSeconds *obs.Histogram
	slow         *obs.SlowLog

	// methodCtr holds the per-method solve counters (the /metrics
	// "paqld_solves_total{method=...}" family), created on first use.
	methodMu  sync.Mutex
	methodCtr map[string]*obs.Counter

	// statsSeq numbers Stats() snapshots; the durability/QoS blocks
	// carry it so a scraper interleaving /stats polls can order them
	// without trusting wall clocks.
	statsSeq atomic.Uint64
}

// counters are the monotonically increasing service statistics. Every
// *obs.Counter field is a registry cell (see newCounters); solveNanos
// stays a plain atomic because it is a signed nanosecond sum rendered
// as a derived collector.
type counters struct {
	queries     *obs.Counter
	ok          *obs.Counter
	infeasible  *obs.Counter
	truncated   *obs.Counter
	badRequest  *obs.Counter
	rejected    *obs.Counter
	timeouts    *obs.Counter
	failures    *obs.Counter
	explains    *obs.Counter
	incumbents  *obs.Counter
	solveNanos  atomic.Int64
	backtracks  *obs.Counter
	subproblems *obs.Counter
	// Mutation-path counters (POST /datasets/{name}/rows).
	mutations    *obs.Counter
	rowsInserted *obs.Counter
	rowsDeleted  *obs.Counter
	rowsUpdated  *obs.Counter
	// Background-maintenance counters (MaintainOnce).
	compactions *obs.Counter
	snapshots   *obs.Counter
}

// New creates an empty server.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	reg := obs.NewRegistry()
	s := &Server{
		cfg:       cfg,
		start:     time.Now(),
		datasets:  make(map[string]*Dataset),
		solve:     newQoSClass("solve", cfg.MaxInFlight, cfg.MaxQueued),
		ingest:    newQoSClass("ingest", cfg.IngestMaxInFlight, cfg.IngestMaxQueued),
		reg:       reg,
		ctr:       newCounters(reg),
		slow:      obs.NewSlowLog(cfg.SlowQueryLog, cfg.SlowQuery),
		methodCtr: make(map[string]*obs.Counter),
	}
	s.solveSeconds = reg.Histogram("paqld_solve_seconds",
		"Wall-clock solver time per fresh (non-cached) solve.", obs.DefBuckets)
	s.registerCollectors()
	return s
}

// Register adds a dataset to the registry. Registering a name twice
// replaces the previous dataset (warm caches and all).
func (s *Server) Register(ds *Dataset) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.datasets[ds.Name()] = ds
}

// Deregister removes a dataset from the registry (a no-op for unknown
// names). It does not close the dataset — the caller owns that.
func (s *Server) Deregister(name string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	delete(s.datasets, name)
}

// Dataset looks up a registered dataset, or nil.
func (s *Server) Dataset(name string) *Dataset {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.datasets[name]
}

// SetMutationGate installs a check run before every mutation request;
// a non-nil error refuses the batch with 503 (the client should retry
// against the current leader). The replication layer uses it to make
// followers and fenced ex-leaders read-only. Pass nil to clear.
func (s *Server) SetMutationGate(gate func() error) {
	s.replMu.Lock()
	defer s.replMu.Unlock()
	s.mutGate = gate
}

// checkMutationGate returns the installed gate's verdict (nil when no
// gate is installed).
func (s *Server) checkMutationGate() error {
	s.replMu.RLock()
	gate := s.mutGate
	s.replMu.RUnlock()
	if gate == nil {
		return nil
	}
	return gate()
}

// SetReplStats installs the provider of the /stats "replication"
// block (role, epoch, per-dataset lag). Pass nil to clear.
func (s *Server) SetReplStats(fn func() any) {
	s.replMu.Lock()
	defer s.replMu.Unlock()
	s.replStats = fn
}

// Handler returns the HTTP API:
//
//	POST /query                 evaluate (or explain) a PaQL query (QueryRequest → QueryResponse)
//	POST /datasets/{name}/rows  mutate a dataset (MutateRequest → MutateResponse)
//	GET  /stats                 service and cache statistics
//	GET  /metrics               Prometheus text exposition (same cells as /stats)
//	GET  /datasets              registered datasets
//	GET  /healthz               liveness
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/query", s.handleQuery)
	mux.HandleFunc("POST /datasets/{name}/rows", s.handleMutate)
	mux.HandleFunc("/stats", s.handleStats)
	mux.Handle("GET /metrics", s.reg.Handler())
	mux.HandleFunc("/datasets", s.handleDatasets)
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, map[string]any{"ok": true})
	})
	return mux
}

// enter registers a request with the drain tracker; it reports false
// when the server is draining and the request must be refused.
func (s *Server) enter() bool {
	s.lifeMu.Lock()
	defer s.lifeMu.Unlock()
	if s.draining {
		return false
	}
	s.active++
	return true
}

// leave is enter's counterpart; the last request out wakes Shutdown.
func (s *Server) leave() {
	s.lifeMu.Lock()
	defer s.lifeMu.Unlock()
	s.active--
	if s.active == 0 && s.draining && s.idle != nil {
		close(s.idle)
		s.idle = nil
	}
}

// Shutdown drains: new queries are refused with 503, and the call blocks
// until every in-flight solve has finished or ctx expires. It does not
// close the HTTP listener — pair it with http.Server.Shutdown.
func (s *Server) Shutdown(ctx context.Context) error {
	s.lifeMu.Lock()
	s.draining = true
	idle := s.idle
	if idle == nil {
		idle = make(chan struct{})
		if s.active == 0 {
			close(idle)
		} else {
			s.idle = idle
		}
	}
	s.lifeMu.Unlock()
	select {
	case <-idle:
		return nil
	case <-ctx.Done():
		s.lifeMu.Lock()
		active := s.active
		s.lifeMu.Unlock()
		return fmt.Errorf("server: shutdown with %d request(s) still in flight: %w",
			active, ctx.Err())
	}
}

// isDraining reports the drain state (for /stats and admission).
func (s *Server) isDraining() bool {
	s.lifeMu.Lock()
	defer s.lifeMu.Unlock()
	return s.draining
}

// MaintainOnce runs one background-maintenance pass over every
// dataset: a dataset whose tombstone ratio exceeds the configured
// threshold is compacted (reclaiming resident memory), and a durable
// dataset whose WAL has outgrown WALMaxBytes is snapshotted (folding the
// log away). Replicas are skipped. It returns a human-readable action
// log: one entry per dataset acted on. paqld calls it on a timer; tests
// call it directly.
func (s *Server) MaintainOnce() []string {
	s.mu.RLock()
	datasets := make([]*Dataset, 0, len(s.datasets))
	for _, ds := range s.datasets {
		datasets = append(datasets, ds)
	}
	s.mu.RUnlock()
	var actions []string
	for _, ds := range datasets {
		if ds.IsReplica() {
			// A replica's layout mirrors its leader's byte-for-byte;
			// compacting or snapshotting it locally would renumber rows out
			// from under the replication stream. Its leader does the
			// reclaiming; the follower picks it up through resync.
			continue
		}
		// Len/Live are plain fields mutated under the session's write
		// lock; read them under the read side, not bare (this runs on a
		// timer goroutine concurrent with HTTP mutations).
		var phys, live int
		ds.Session().View(func(rel *relation.Relation) { phys, live = rel.Len(), rel.Live() })
		if s.cfg.TombstoneRatio > 0 && phys > 0 &&
			float64(phys-live)/float64(phys) > s.cfg.TombstoneRatio {
			reclaimed, err := ds.Session().Compact()
			if err != nil {
				actions = append(actions, fmt.Sprintf("%s: compact failed: %v", ds.Name(), err))
				continue
			}
			s.ctr.compactions.Add(1)
			actions = append(actions, fmt.Sprintf("%s: compacted %d tombstoned rows (%d resident)", ds.Name(), reclaimed, phys-reclaimed))
			continue // a durable compact already snapshotted (empty WAL)
		}
		d := ds.DurStats()
		needSnap := d.Durable && (d.Poisoned ||
			(s.cfg.WALMaxBytes > 0 && d.WALBytes > s.cfg.WALMaxBytes))
		if needSnap {
			if err := ds.Session().Snapshot(); err != nil {
				actions = append(actions, fmt.Sprintf("%s: snapshot failed: %v", ds.Name(), err))
				continue
			}
			s.ctr.snapshots.Add(1)
			actions = append(actions, fmt.Sprintf("%s: snapshotted (WAL was %d bytes)", ds.Name(), d.WALBytes))
		}
	}
	return actions
}

// CloseDatasets flushes every durable dataset (final snapshot) and
// closes its store — the last step of a graceful shutdown, after the
// drain: no acknowledged mutation may be lost across the restart. The
// first error is returned; every dataset is still attempted.
func (s *Server) CloseDatasets() error {
	s.mu.RLock()
	datasets := make([]*Dataset, 0, len(s.datasets))
	for _, ds := range s.datasets {
		datasets = append(datasets, ds)
	}
	s.mu.RUnlock()
	var first error
	for _, ds := range datasets {
		if err := ds.Close(); err != nil && first == nil {
			first = fmt.Errorf("server: closing dataset %q: %w", ds.Name(), err)
		}
	}
	return first
}

// QueryRequest is the body of POST /query.
type QueryRequest struct {
	// Dataset names a registered dataset.
	Dataset string `json:"dataset"`
	// Query is the PaQL text.
	Query string `json:"query"`
	// Method selects the evaluation strategy: "direct" (the default),
	// "sketchrefine", or "auto" (the planner chooses and the response's
	// plan/stats say why).
	Method string `json:"method,omitempty"`
	// Explain, when true, returns the statement's plan without solving.
	Explain bool `json:"explain,omitempty"`
	// TimeoutMS bounds the evaluation; 0 applies the server default. The
	// value is capped at the server's MaxTimeout.
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
	// IncludeTuples adds the materialized package tuples to the response
	// (row indices and multiplicities are always included).
	IncludeTuples bool `json:"include_tuples,omitempty"`
	// Trace returns the execution's span tree in the response — where
	// the request's time went: plan, snapshot pin, solve (sketch, each
	// refine group, ILP iterations), objective.
	Trace bool `json:"trace,omitempty"`
}

// PackageRow is one distinct tuple of the answer package.
type PackageRow struct {
	Row  int `json:"row"`
	Mult int `json:"mult"`
}

// EvalStatsJSON is the wire form of paq.Stats.
type EvalStatsJSON struct {
	Subproblems  int     `json:"subproblems"`
	Vars         int     `json:"vars"`
	Rows         int     `json:"rows"`
	SolverNodes  int     `json:"solver_nodes"`
	LPIterations int     `json:"lp_iterations"`
	Backtracks   int     `json:"backtracks"`
	SolveTimeMS  float64 `json:"solve_time_ms"`
	Truncated    bool    `json:"truncated"`
}

func statsJSON(st *paq.Stats) *EvalStatsJSON {
	if st == nil {
		return nil
	}
	return &EvalStatsJSON{
		Subproblems:  st.Subproblems,
		Vars:         st.Vars,
		Rows:         st.Rows,
		SolverNodes:  st.SolverNodes,
		LPIterations: st.LPIterations,
		Backtracks:   st.Backtracks,
		SolveTimeMS:  float64(st.SolveTime) / float64(time.Millisecond),
		Truncated:    st.Truncated,
	}
}

// QueryResponse is the body of a successful (HTTP 200) POST /query. A
// 200 carries a package, an infeasibility verdict, or — for explain
// requests — the plan; all are definitive answers to the request.
type QueryResponse struct {
	Dataset string `json:"dataset"`
	Method  string `json:"method"`
	// Plan is the typed EXPLAIN output (explain requests only).
	Plan *paq.Plan `json:"plan,omitempty"`
	// Infeasible reports a proven (or SketchRefine-reported) "no such
	// package" verdict; Objective and Rows are absent.
	Infeasible bool `json:"infeasible,omitempty"`
	// FalseInfeasible marks a SketchRefine infeasibility that Theorem 4
	// does not make definitive (Section 4.4); a DIRECT retry could
	// still find a package.
	FalseInfeasible bool `json:"false_infeasible,omitempty"`
	// Objective is the objective value formatted with strconv 'g'/-1 —
	// byte-comparable across server and in-process evaluations.
	Objective string  `json:"objective,omitempty"`
	ObjValue  float64 `json:"obj_value,omitempty"`
	Size      int     `json:"size,omitempty"`
	Distinct  int     `json:"distinct,omitempty"`
	// Version is the dataset version the solve was pinned at — the
	// MVCC read point; every value above reflects exactly that version.
	Version uint64 `json:"version,omitempty"`
	// Truncated reports a budget-limited incumbent: feasible, but
	// possibly suboptimal. Mirrors paqlcli's nonzero-exit contract.
	Truncated bool `json:"truncated,omitempty"`
	Cached    bool `json:"cached,omitempty"`
	// Incumbents counts the improving ILP incumbents found during the
	// solve (0 for cache hits) — the anytime-results signal.
	Incumbents int            `json:"incumbents,omitempty"`
	Rows       []PackageRow   `json:"rows,omitempty"`
	Tuples     [][]string     `json:"tuples,omitempty"`
	Stats      *EvalStatsJSON `json:"stats,omitempty"`
	TimeMS     float64        `json:"time_ms"`
	// Trace is the execution's span tree ("trace": true requests only).
	Trace *paq.TraceNode `json:"trace,omitempty"`
}

// errorResponse is the body of every non-200 response.
type errorResponse struct {
	Error string `json:"error"`
	// Trace is a failed traced execution's span tree.
	Trace *paq.TraceNode `json:"trace,omitempty"`
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	// Marshal before WriteHeader: an unencodable value (e.g. a NaN float
	// that slipped into a response) must become a structured 500, not a
	// 200 with an empty body.
	body, err := json.Marshal(v)
	if err != nil {
		status = http.StatusInternalServerError
		body, _ = json.Marshal(errorResponse{Error: fmt.Sprintf("encoding response: %v", err)})
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_, _ = w.Write(body) // a client that hung up is not a server error
	_, _ = w.Write([]byte("\n"))
}

func (s *Server) failf(w http.ResponseWriter, status int, format string, args ...any) {
	writeJSON(w, status, errorResponse{Error: fmt.Sprintf(format, args...)})
}

// admit claims a slot from the given QoS class for one request of the
// named dataset. It returns a release function, or writes the refusal
// (429 on class-queue overflow, 504 when the deadline fires while
// queued) and returns nil.
func (s *Server) admit(ctx context.Context, w http.ResponseWriter, q *qosClass, dataset string) func() {
	release, ref := q.admit(ctx, dataset)
	if ref == nil {
		return release
	}
	switch ref.status {
	case http.StatusTooManyRequests:
		s.ctr.rejected.Add(1)
		w.Header().Set("Retry-After", "1")
	case http.StatusGatewayTimeout:
		s.ctr.timeouts.Add(1)
	}
	s.failf(w, ref.status, "%s", ref.msg)
	return nil
}

func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		s.failf(w, http.StatusMethodNotAllowed, "POST required")
		return
	}
	if !s.enter() {
		s.failf(w, http.StatusServiceUnavailable, "server is shutting down")
		return
	}
	defer s.leave()
	s.ctr.queries.Add(1)

	var req QueryRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		s.ctr.badRequest.Add(1)
		s.failf(w, http.StatusBadRequest, "bad request body: %v", err)
		return
	}
	if req.Query == "" {
		s.ctr.badRequest.Add(1)
		s.failf(w, http.StatusBadRequest, "empty query")
		return
	}
	ds := s.Dataset(req.Dataset)
	if ds == nil {
		s.ctr.badRequest.Add(1)
		s.failf(w, http.StatusNotFound, "unknown dataset %q", req.Dataset)
		return
	}
	methodName := req.Method
	if methodName == "" {
		methodName = MethodDirect
	}
	method, err := paq.ParseMethod(methodName)
	if err != nil || !ds.serves(method) && method != paq.MethodAuto {
		s.ctr.badRequest.Add(1)
		s.failf(w, http.StatusBadRequest, "unknown method %q (have %v)", req.Method, ds.Methods())
		return
	}

	// Prepare before admission: parse/translate/plan is cheap against a
	// warm partitioning, and a malformed query should not consume a
	// solve slot.
	stmt, err := ds.Session().Prepare(req.Query, paq.WithMethod(method))
	if err != nil {
		var pe *paq.ParseError
		if errors.As(err, &pe) || errors.Is(err, paq.ErrTypeMismatch) {
			s.ctr.badRequest.Add(1)
			s.failf(w, http.StatusBadRequest, "%v", err)
			return
		}
		s.ctr.failures.Add(1)
		s.failf(w, http.StatusInternalServerError, "prepare: %v", err)
		return
	}

	if req.Explain {
		// EXPLAIN answers from the plan alone — no solve, no slot.
		s.ctr.explains.Add(1)
		writeJSON(w, http.StatusOK, QueryResponse{
			Dataset: req.Dataset,
			Method:  string(stmt.Method()),
			Plan:    stmt.Plan(),
		})
		return
	}

	timeout := s.cfg.DefaultTimeout
	if req.TimeoutMS > 0 {
		// Clamp in milliseconds before converting: a huge timeout_ms
		// would overflow the Duration multiplication, wrap negative, and
		// skip the cap.
		if maxMS := s.cfg.MaxTimeout.Milliseconds(); req.TimeoutMS > maxMS {
			req.TimeoutMS = maxMS
		}
		timeout = time.Duration(req.TimeoutMS) * time.Millisecond
	}
	if timeout > s.cfg.MaxTimeout {
		timeout = s.cfg.MaxTimeout
	}
	ctx, cancel := context.WithTimeout(r.Context(), timeout)
	defer cancel()

	release := s.admit(ctx, w, s.solve, req.Dataset)
	if release == nil {
		return
	}
	defer release()

	// Tracing costs one span tree per request; pay it only when the
	// client asked for it or the slow-query log may want it.
	var execOpts []paq.ExecOption
	if req.Trace || s.slow != nil {
		execOpts = append(execOpts, paq.WithTrace())
	}
	res, execErr := stmt.Execute(ctx, execOpts...)
	s.respond(w, req, stmt, res, execErr)
}

// respond translates an execution outcome into the HTTP response.
func (s *Server) respond(w http.ResponseWriter, req QueryRequest, stmt *paq.Stmt, res *paq.Result, execErr error) {
	resp := QueryResponse{
		Dataset: req.Dataset,
		Method:  string(stmt.Method()),
	}
	// A traced execution hands its span tree back with its result or,
	// when it failed, with its error; a failure's time is its root span's.
	var traced interface{ Trace() *paq.TraceNode }
	var took time.Duration
	if res != nil {
		traced, took = res, res.Time
	} else if errors.As(execErr, &traced) {
		took = time.Duration(traced.Trace().DurationMS * float64(time.Millisecond))
	}
	if traced != nil && req.Trace {
		resp.Trace = traced.Trace()
	}
	// Snapshotting the span tree is the expensive part of a slow-log
	// line; check the threshold before building the entry.
	if traced != nil && s.slow != nil && took >= s.slow.Threshold() {
		e := obs.SlowEntry{
			Dataset:    req.Dataset,
			Query:      req.Query,
			Method:     string(stmt.Method()),
			DurationMS: float64(took) / float64(time.Millisecond),
			Plan:       stmt.Plan(),
			Trace:      traced.Trace(),
		}
		if res != nil {
			e.Version, e.Cached = res.Version, res.Cached
		}
		if execErr != nil {
			e.Error = execErr.Error()
		}
		s.slow.Observe(e)
	}
	if res != nil {
		if st := res.Stats; st != nil {
			s.ctr.solveNanos.Add(int64(st.SolveTime))
			s.ctr.backtracks.Add(uint64(st.Backtracks))
			s.ctr.subproblems.Add(uint64(st.Subproblems))
		}
		s.ctr.incumbents.Add(uint64(res.Incumbents))
		if !res.Cached {
			s.solveSeconds.Observe(res.Time.Seconds())
		}
		resp.Cached = res.Cached
		resp.Incumbents = res.Incumbents
		resp.Stats = statsJSON(res.Stats)
		resp.TimeMS = float64(res.Time) / float64(time.Millisecond)
	}
	if execErr != nil {
		fail := func(status int, format string, args ...any) {
			writeJSON(w, status, errorResponse{Error: fmt.Sprintf(format, args...), Trace: resp.Trace})
		}
		switch {
		case errors.Is(execErr, paq.ErrInfeasible):
			// A definitive verdict about the query, not a failure
			// (ErrFalseInfeasible satisfies ErrInfeasible too).
			s.ctr.infeasible.Add(1)
			s.methodCounter(string(stmt.Method())).Inc()
			resp.Infeasible = true
			resp.FalseInfeasible = errors.Is(execErr, paq.ErrFalseInfeasible)
			writeJSON(w, http.StatusOK, resp)
		case errors.Is(execErr, paq.ErrTimeout):
			s.ctr.timeouts.Add(1)
			fail(http.StatusGatewayTimeout, "evaluation deadline exceeded")
		case errors.Is(execErr, context.Canceled):
			// The client went away; nothing useful to write.
			s.ctr.timeouts.Add(1)
			fail(http.StatusGatewayTimeout, "request canceled")
		default:
			// Solver budget exhaustion and other evaluation failures:
			// the query was valid but this budget could not answer it.
			s.ctr.failures.Add(1)
			fail(http.StatusUnprocessableEntity, "evaluation failed: %v", execErr)
		}
		return
	}

	obj := res.Objective
	if math.IsNaN(obj) || math.IsInf(obj, 0) {
		// NaN/Inf cells can enter via loaded CSV data; JSON cannot carry
		// them and the value is meaningless as an optimum.
		s.ctr.failures.Add(1)
		s.failf(w, http.StatusUnprocessableEntity, "objective evaluated to %v (non-finite data in the aggregated columns)", obj)
		return
	}
	s.ctr.ok.Add(1)
	s.methodCounter(string(stmt.Method())).Inc()
	if res.Truncated {
		s.ctr.truncated.Add(1)
		resp.Truncated = true
	}
	resp.Objective = strconv.FormatFloat(obj, 'g', -1, 64)
	resp.ObjValue = obj
	resp.Size = res.Size
	resp.Distinct = res.Distinct
	resp.Version = res.Version
	resp.Rows = make([]PackageRow, len(res.Rows))
	for i, row := range res.Rows {
		resp.Rows[i] = PackageRow{Row: row, Mult: res.Mult[i]}
	}
	if req.IncludeTuples {
		// The package reads the snapshot its solve pinned, which no
		// mutation touches: no lock, and no second lookup of the dataset.
		mat := res.Package().Materialize("package")
		nCols := mat.Schema().Len()
		resp.Tuples = make([][]string, 0, mat.Len())
		for i := 0; i < mat.Len(); i++ {
			tup := make([]string, nCols)
			for c := range tup {
				tup[c] = mat.Value(i, c).String()
			}
			resp.Tuples = append(resp.Tuples, tup)
		}
	}
	writeJSON(w, http.StatusOK, resp)
}

// StatsResponse is the body of GET /stats.
type StatsResponse struct {
	UptimeMS float64 `json:"uptime_ms"`
	// Seq numbers this snapshot: strictly increasing across Stats()
	// calls, echoed into the QoS / durability blocks so a scraper can
	// order interleaved polls without trusting wall clocks.
	Seq         uint64 `json:"seq"`
	Queries     uint64 `json:"queries"`
	OK          uint64 `json:"ok"`
	Infeasible  uint64 `json:"infeasible"`
	Truncated   uint64 `json:"truncated"`
	BadRequests uint64 `json:"bad_requests"`
	Rejected    uint64 `json:"rejected"`
	Timeouts    uint64 `json:"timeouts"`
	Failures    uint64 `json:"failures"`
	Explains    uint64 `json:"explains"`
	// Incumbents is the total number of improving ILP incumbents found
	// across all executions — the anytime-results counter.
	Incumbents uint64 `json:"incumbents_total"`
	// Mutations counts POST /datasets/{name}/rows requests; RowsInserted
	// / RowsDeleted / RowsUpdated the rows they carried.
	Mutations    uint64 `json:"mutations"`
	RowsInserted uint64 `json:"rows_inserted"`
	RowsDeleted  uint64 `json:"rows_deleted"`
	RowsUpdated  uint64 `json:"rows_updated"`
	// Compactions and Snapshots count background-maintenance actions
	// (tombstone reclamation and WAL-driven snapshots).
	Compactions uint64 `json:"compactions"`
	Snapshots   uint64 `json:"snapshots"`
	// InFlight and Queued mirror the solve class's occupancy (the
	// pre-QoS wire fields); QoS carries the full per-class breakdown
	// ("solve" and "ingest" buckets with per-dataset fairness counters).
	InFlight int                 `json:"in_flight"`
	Queued   int                 `json:"queued"`
	QoS      map[string]QoSStats `json:"qos"`
	Draining bool                `json:"draining"`
	// Methods is the completed-solve count per evaluation method — the
	// same cells /metrics renders as paqld_solves_total{method}.
	Methods     map[string]uint64       `json:"methods,omitempty"`
	SolveTimeMS float64                 `json:"solve_time_ms_total"`
	Backtracks  uint64                  `json:"backtracks_total"`
	Subproblems uint64                  `json:"subproblems_total"`
	Datasets    map[string]DatasetStats `json:"datasets"`
	// Replication is the repl.Node's status block (role, epoch,
	// per-dataset tail lag); absent when the node is not replicated.
	Replication any `json:"replication,omitempty"`
}

// DatasetStats summarizes one dataset and its per-method caches.
type DatasetStats struct {
	Rows int `json:"rows"`
	// Version is the dataset's mutation counter (see MutateResponse).
	Version uint64 `json:"version"`
	Groups  int    `json:"groups"`
	Tau     int    `json:"tau"`
	// Maintenance is the cumulative incremental partition-maintenance
	// work performed on the dataset's live partitionings.
	Maintenance MaintJSON `json:"maintenance"`
	// Pinning reports how this dataset's solves interacted with the
	// mutation lock while pinning their snapshots: pin count, and the
	// total / worst-case read-lock wait. max_wait_ms staying bounded by
	// one batch apply is the observable "ingest never blocks solves".
	Pinning PinJSON `json:"pinning"`
	// Durability describes the dataset's persistence state (absent for
	// in-memory datasets).
	Durability *DurJSON              `json:"durability,omitempty"`
	Caches     map[string]CacheStats `json:"caches"`
	// WarmSets lists the dataset's warm partitionings (attributes,
	// groups).
	WarmSets []paq.WarmSet `json:"warm_sets,omitempty"`
}

// DurJSON is the wire form of paq.DurStats.
type DurJSON struct {
	// Since is when the dataset was registered with this server; Seq is
	// the /stats snapshot sequence (see StatsResponse.Seq).
	Since time.Time `json:"since"`
	Seq   uint64    `json:"seq"`
	// WALBytes is the current write-ahead log size — the bytes a crash
	// would replay.
	WALBytes int64 `json:"wal_bytes"`
	// SnapshotVersion is the dataset version of the latest snapshot;
	// SnapshotAgeMS how long ago it was written.
	SnapshotVersion uint64  `json:"snapshot_version"`
	SnapshotAgeMS   float64 `json:"snapshot_age_ms"`
	Snapshots       uint64  `json:"snapshots"`
	Compactions     uint64  `json:"compactions"`
	// ReplayedOps counts the row mutations replayed from the WAL when
	// the dataset recovered at boot; WarmPartitionings the partitionings
	// warm-started from its snapshot (offline builds the boot skipped).
	ReplayedOps       uint64 `json:"replayed_ops"`
	WarmPartitionings int    `json:"warm_partitionings"`
	WALAppends        uint64 `json:"wal_appends"`
	WALSyncs          uint64 `json:"wal_syncs"`
	// Poisoned reports a compaction whose snapshot failed: mutations
	// are refused until the maintenance pass snapshots successfully.
	Poisoned bool `json:"poisoned,omitempty"`
}

func durJSON(d paq.DurStats, since time.Time, seq uint64) *DurJSON {
	if !d.Durable {
		return nil
	}
	return &DurJSON{
		Since:             since,
		Seq:               seq,
		WALBytes:          d.WALBytes,
		SnapshotVersion:   d.SnapshotVersion,
		SnapshotAgeMS:     float64(d.SnapshotAge) / float64(time.Millisecond),
		Snapshots:         d.Snapshots,
		Compactions:       d.Compactions,
		ReplayedOps:       d.ReplayedOps,
		WarmPartitionings: d.WarmPartitionings,
		WALAppends:        d.WALAppends,
		WALSyncs:          d.WALSyncs,
		Poisoned:          d.Poisoned,
	}
}

// PinJSON is the wire form of paq.PinStats.
type PinJSON struct {
	Pins        uint64  `json:"pins"`
	WaitMSTotal float64 `json:"wait_ms_total"`
	MaxWaitMS   float64 `json:"max_wait_ms"`
}

func pinJSON(p paq.PinStats) PinJSON {
	return PinJSON{
		Pins:        p.Pins,
		WaitMSTotal: float64(p.WaitTotal) / float64(time.Millisecond),
		MaxWaitMS:   float64(p.WaitMax) / float64(time.Millisecond),
	}
}

// CacheStats is the wire form of paq.CacheStats.
type CacheStats struct {
	Hits      uint64 `json:"hits"`
	Misses    uint64 `json:"misses"`
	Evictions uint64 `json:"evictions"`
	// Invalidations counts cached solutions reclaimed because the
	// dataset moved past the version they were solved at.
	Invalidations uint64 `json:"invalidations"`
	Entries       int    `json:"entries"`
}

// Stats snapshots the service counters (also served at GET /stats).
func (s *Server) Stats() StatsResponse {
	seq := s.statsSeq.Add(1)
	solveStats := s.solve.stats()
	ingestStats := s.ingest.stats()
	solveStats.Seq, ingestStats.Seq = seq, seq
	resp := StatsResponse{
		UptimeMS:     float64(time.Since(s.start)) / float64(time.Millisecond),
		Seq:          seq,
		Queries:      s.ctr.queries.Value(),
		OK:           s.ctr.ok.Value(),
		Infeasible:   s.ctr.infeasible.Value(),
		Truncated:    s.ctr.truncated.Value(),
		BadRequests:  s.ctr.badRequest.Value(),
		Rejected:     s.ctr.rejected.Value(),
		Timeouts:     s.ctr.timeouts.Value(),
		Failures:     s.ctr.failures.Value(),
		Explains:     s.ctr.explains.Value(),
		Incumbents:   s.ctr.incumbents.Value(),
		Mutations:    s.ctr.mutations.Value(),
		RowsInserted: s.ctr.rowsInserted.Value(),
		RowsDeleted:  s.ctr.rowsDeleted.Value(),
		RowsUpdated:  s.ctr.rowsUpdated.Value(),
		Compactions:  s.ctr.compactions.Value(),
		Snapshots:    s.ctr.snapshots.Value(),
		InFlight:     solveStats.InFlight,
		Queued:       solveStats.Queued,
		QoS:          map[string]QoSStats{"solve": solveStats, "ingest": ingestStats},
		Draining:     s.isDraining(),
		Methods:      s.methodMix(),
		SolveTimeMS:  float64(s.ctr.solveNanos.Load()) / float64(time.Millisecond),
		Backtracks:   s.ctr.backtracks.Value(),
		Subproblems:  s.ctr.subproblems.Value(),
		Datasets:     make(map[string]DatasetStats),
	}
	s.replMu.RLock()
	if s.replStats != nil {
		resp.Replication = s.replStats()
	}
	s.replMu.RUnlock()
	s.mu.RLock()
	defer s.mu.RUnlock()
	for name, ds := range s.datasets {
		dst := DatasetStats{
			Rows:        ds.Rows(),
			Version:     ds.Version(),
			Maintenance: maintJSON(ds.Session().MaintStats()),
			Pinning:     pinJSON(ds.Session().PinStats()),
			Durability:  durJSON(ds.DurStats(), ds.Created(), seq),
			Caches:      make(map[string]CacheStats),
		}
		if pi, err := ds.Partitioning(); err == nil {
			dst.Groups = pi.Groups
			dst.Tau = pi.Tau
		}
		for m, cs := range ds.Session().CacheStats() {
			dst.Caches[string(m)] = CacheStats{Hits: cs.Hits, Misses: cs.Misses, Evictions: cs.Evictions, Invalidations: cs.Invalidations, Entries: cs.Entries}
		}
		dst.WarmSets = ds.Session().WarmSets()
		resp.Datasets[name] = dst
	}
	return resp
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.Stats())
}

// DatasetInfo is one entry of GET /datasets.
type DatasetInfo struct {
	Name    string   `json:"name"`
	Rows    int      `json:"rows"`
	Version uint64   `json:"version"`
	Columns []string `json:"columns"`
	Attrs   []string `json:"partition_attrs"`
	Groups  int      `json:"groups"`
	Methods []string `json:"methods"`
}

func (s *Server) handleDatasets(w http.ResponseWriter, r *http.Request) {
	s.mu.RLock()
	infos := make([]DatasetInfo, 0, len(s.datasets))
	for _, ds := range s.datasets {
		cols := make([]string, ds.Rel().Schema().Len())
		for i := range cols {
			col := ds.Rel().Schema().Col(i)
			cols[i] = fmt.Sprintf("%s:%s", col.Name, col.Type)
		}
		info := DatasetInfo{
			Name:    ds.Name(),
			Rows:    ds.Rows(),
			Version: ds.Version(),
			Columns: cols,
			Methods: ds.Methods(),
		}
		if pi, err := ds.Partitioning(); err == nil {
			info.Attrs = pi.Attrs
			info.Groups = pi.Groups
		}
		infos = append(infos, info)
	}
	s.mu.RUnlock()
	sort.Slice(infos, func(i, j int) bool { return infos[i].Name < infos[j].Name })
	writeJSON(w, http.StatusOK, infos)
}
