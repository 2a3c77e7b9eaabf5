package paq

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/obs"
	"repro/internal/partition"
	"repro/internal/relation"
	"repro/internal/store"
)

// Package is the answer to a package query: distinct tuple rows of the
// input relation with their multiplicities.
type Package = core.Package

// Stats records the work done by one evaluation (ILP sizes, solver
// nodes, subproblems, refinement backtracks).
type Stats = core.EvalStats

// CacheStats is a snapshot of one strategy's solution-cache counters.
type CacheStats = engine.CacheStats

// Solver is an evaluation strategy that replaces a method's own; it is
// exported for test seams (see Session.SetSolver), not for everyday use.
// Solve must honor ctx and be safe for concurrent use.
type Solver interface {
	Solve(ctx context.Context, spec *core.Spec) (*Package, *Stats, error)
}

// Source is where Open loads the input relation from; workers is the
// session's WithWorkers bound.
type Source interface {
	load(workers int) (*relation.Relation, error)
}

type csvSource struct{ path string }

func (s csvSource) load(workers int) (*relation.Relation, error) {
	return relation.LoadCSVWorkers(s.path, workers)
}

// CSV sources the input relation from a typed CSV file (header fields
// are name:type with type f=float, i=int, s=string, as written by the
// datagen tool). Open decodes the file on up to WithWorkers goroutines.
func CSV(path string) Source { return csvSource{path: path} }

type tableSource struct{ rel *relation.Relation }

func (s tableSource) load(int) (*relation.Relation, error) {
	if s.rel == nil {
		return nil, fmt.Errorf("paq: nil relation")
	}
	return s.rel, nil
}

// Table sources the input relation from an in-memory table.
func Table(rel *relation.Relation) Source { return tableSource{rel: rel} }

// Session is an open package-query session over one input relation. The
// relation, its lock, its durability store and its offline
// partitionings belong to the dataset the session shares with every
// Clone; the session itself holds only what differs between clones —
// configuration, one solution-caching engine per evaluation strategy,
// and counters. A Session is safe for concurrent use.
type Session struct {
	d   *dataset
	cfg config

	// engines holds one solution cache per concrete method, fixed by
	// newSession; solvers holds SetSolver's overrides. Both are written
	// only before the session serves traffic and read without a lock.
	engines map[Method]*engine.Engine
	solvers map[Method]Solver

	// mu guards partBuilds, the offline partitioning builds this session
	// paid.
	mu         sync.Mutex
	partBuilds uint64

	incumbents atomic.Uint64
}

// newSession is the one constructor behind Open and Clone.
func newSession(d *dataset, cfg config) *Session {
	if cfg.numericAttrs {
		cfg.partAttrs = numericColumns(d.rel.Schema())
	}
	s := &Session{
		d:       d,
		cfg:     cfg,
		engines: make(map[Method]*engine.Engine),
		solvers: make(map[Method]Solver),
	}
	// SketchRefine's solves key under their partitioning's key, so one
	// engine serves every set.
	for _, m := range Methods() {
		e := &engine.Engine{NoCache: cfg.noCache}
		s.engines[m] = e
		d.register(e)
	}
	return s
}

// PinStats reports how executions interacted with the mutation lock
// while pinning their snapshots. Pins counts pinned executions (shared
// across Clones, like the snapshot they pin); WaitTotal and WaitMax
// are the cumulative and worst-case time an execution spent acquiring
// the dataset read lock before its solve went lock-free. A WaitMax
// bounded by one mutation batch's apply time is the expected steady
// state; large values mean solves are stalling behind ingest.
type PinStats struct {
	Pins      uint64
	WaitTotal time.Duration
	WaitMax   time.Duration
}

// PinStats snapshots the session's pin-wait counters.
func (s *Session) PinStats() PinStats {
	pw := &s.d.pin
	return PinStats{
		Pins:      pw.pins.Load(),
		WaitTotal: time.Duration(pw.waitNanos.Load()),
		WaitMax:   time.Duration(pw.maxWait.Load()),
	}
}

// Open loads and validates the input relation and returns a session
// over it. Partitionings are built lazily on first need (or eagerly
// with WithWarmPartitioning); solver budgets, the evaluation method,
// τ and ω come from the options.
//
// With WithDurability, Open first looks for durable state in the
// directory: if a snapshot exists, the session recovers from it —
// snapshot plus WAL replay, partitionings warm-started — and the
// source is not consulted (it may be nil); otherwise the source is
// loaded and a baseline snapshot written so later mutations have a
// durable base.
func Open(src Source, opts ...Option) (*Session, error) {
	cfg := defaults()
	for _, o := range opts {
		if err := o.apply(&cfg); err != nil {
			return nil, err
		}
	}
	d := &dataset{parts: make(map[string]*partEntry)}
	var boot *store.Snapshot
	var err error
	opened := false
	if cfg.durDir != "" {
		if d.st, err = store.Open(cfg.durDir); err != nil {
			return nil, err
		}
		// The one close-on-error: whichever step below fails, the store's
		// file handles are released and the directory can be opened again.
		defer func() {
			if !opened {
				d.st.Close()
			}
		}()
		boot = d.st.BootSnapshot()
	}
	switch {
	case boot != nil:
		if d.rel = boot.Rel; d.rel.Len() == 0 {
			// Mirror the empty-source rejection below: a store whose last
			// snapshot holds zero rows (every row deleted, then closed)
			// reopens to a session no query could run against.
			return nil, fmt.Errorf("paq: durable state in %s holds an empty relation %q", cfg.durDir, d.rel.Name())
		}
	case src == nil && d.st != nil:
		return nil, fmt.Errorf("paq: nil source and no durable state in %s", cfg.durDir)
	case src == nil:
		return nil, fmt.Errorf("paq: nil source")
	default:
		if d.rel, err = src.load(cfg.workers); err != nil {
			return nil, err
		}
		if d.rel.Len() == 0 {
			return nil, fmt.Errorf("paq: input relation %q is empty", d.rel.Name())
		}
	}
	d.advance()
	s := newSession(d, cfg)
	if boot != nil {
		if err := d.recover(boot); err != nil {
			return nil, err
		}
	}
	if cfg.warm {
		if _, err := s.Partitioning(); err != nil {
			return nil, err
		}
	}
	if d.st != nil && boot == nil {
		// Fresh durable session: persist the baseline (data + any warm
		// partitioning) so the WAL has a snapshot to replay against.
		if err := s.Snapshot(); err != nil {
			return nil, err
		}
	}
	opened = true
	return s, nil
}

// Rel returns the session's input relation. Treat it as read-only:
// mutate the dataset through InsertRows, DeleteRows, and UpdateRows,
// which keep the partitionings maintained and the solution caches
// coherent. Mutating the relation directly bypasses both.
func (s *Session) Rel() *relation.Relation { return s.d.rel }

// Clone returns a new session over the same dataset — relation, lock,
// store and partitioning registry — with fresh engines and solution
// caches, applying any additional options on top of the original
// configuration. Partitionings are shared in both directions, whenever
// built. τ, ω and durability describe the dataset and are fixed at
// Open: an option that would change one is an error.
func (s *Session) Clone(opts ...Option) (*Session, error) {
	cfg := s.cfg
	for _, o := range opts {
		if err := o.apply(&cfg); err != nil {
			return nil, err
		}
	}
	if cfg.datasetConfig != s.cfg.datasetConfig {
		return nil, fmt.Errorf("paq: Clone cannot change τ, ω or durability; they are fixed at Open")
	}
	c := newSession(s.d, cfg)
	if cfg.warm {
		if _, err := c.Partitioning(); err != nil {
			return nil, err
		}
	}
	return c, nil
}

// tau resolves the partition size threshold for this session's relation
// (fractional τ is taken of the live row count at build time).
func (s *Session) tau() int {
	if s.cfg.tauAbs > 0 {
		return s.cfg.tauAbs
	}
	return int(float64(s.d.rel.Live())*s.cfg.tauFrac) + 1
}

// partitionAttrsFor resolves the partitioning attributes for a query:
// the explicitly configured set, else the query's own attributes
// (coverage 1, the paper's recommended setting), else every numeric
// column — the session-wide set, a superset of any query's attributes,
// which is what a long-lived service wants warm.
func (s *Session) partitionAttrsFor(queryAttrs []string) []string {
	if len(s.cfg.partAttrs) > 0 {
		return s.cfg.partAttrs
	}
	if len(queryAttrs) > 0 {
		return queryAttrs
	}
	return numericColumns(s.d.rel.Schema())
}

// numericColumns is the session-wide set: every numeric column.
func numericColumns(schema relation.Schema) []string {
	var attrs []string
	for i := 0; i < schema.Len(); i++ {
		if col := schema.Col(i); col.Type.Numeric() {
			attrs = append(attrs, col.Name)
		}
	}
	return attrs
}

// partKey canonicalizes an attribute set: its registry key and the
// solution-cache prefix of solves over it.
func partKey(attrs []string) string {
	lower := make([]string, len(attrs))
	for i, a := range attrs {
		lower[i] = strings.ToLower(a)
	}
	sort.Strings(lower)
	return strings.Join(lower, ",")
}

// resolve is the one function that maps an attribute set to a
// partitioning: the registry entry under key (the caller's
// partKey(attrs)), built first when it is not — racing callers block on
// the one build. An entry is never removed, so a statement keeps the one
// it resolved. The caller holds the dataset read lock.
func (s *Session) resolve(key string, attrs []string) (*partEntry, error) {
	if len(attrs) == 0 {
		return nil, fmt.Errorf("paq: no numeric attributes to partition on")
	}
	e := s.d.entry(key, true)
	if err := s.build(e, attrs); err != nil {
		return nil, err
	}
	return e, nil
}

// build builds e's partitioning unless it is built already.
func (s *Session) build(e *partEntry, attrs []string) error {
	if e.part.Load() != nil {
		return nil
	}
	e.building.Lock()
	defer e.building.Unlock()
	if e.part.Load() != nil {
		return nil
	}
	p, err := partition.Build(s.d.rel, partition.Options{
		Attrs:         attrs,
		SizeThreshold: s.tau(),
		RadiusLimit:   s.cfg.radius,
		Workers:       s.cfg.workers,
	})
	if err != nil {
		// e stays registered but unbuilt — invisible to each — so callers
		// queued on this build, and any later one, retry it on e itself.
		return err
	}
	e.part.Store(p)
	s.d.dirty.Store(true)
	s.mu.Lock()
	s.partBuilds++
	s.mu.Unlock()
	return nil
}

// pinned is everything one execution needs to solve lock-free: an
// immutable relation snapshot and — for SketchRefine — a frozen view of
// the partitioning bound to it, with the partitioning's solution-cache
// prefix. All are captured under one read-lock
// acquisition, so they are mutually consistent at one version.
type pinned struct {
	snap    *relation.Relation
	view    *partition.Partitioning
	partKey string
}

// pinExec pins the statement's execution: a brief read lock captures
// the snapshot and partitioning view, then the lock is dropped and the
// solve proceeds against the frozen state while ingest continues on
// head. Steady state (no mutation since the last pin) allocates
// nothing — the generation's snapshot and view are reused.
func (s *Session) pinExec(st *Stmt, sp *obs.Span) pinned {
	d := s.d
	t0 := time.Now()
	d.dataMu.RLock()
	wait := time.Since(t0)
	d.pin.observeWait(wait)
	if sp != nil {
		sp.SetAttrFloat("lock_wait_ms", float64(wait)/float64(time.Millisecond))
	}
	defer d.dataMu.RUnlock()
	g := d.cur.Load()
	p := pinned{snap: g.snapshot(d.rel)}
	if st.entry != nil {
		vsp := sp.Child("partition_view")
		p.view, p.partKey = g.view(st.entry.part.Load()), st.entry.key
		if vsp != nil {
			vsp.SetAttrInt("groups", int64(p.view.NumGroups()))
			vsp.Finish()
		}
	}
	return p
}

// PartitionInfo describes one offline partitioning (for EXPLAIN plans
// and service dashboards).
type PartitionInfo struct {
	Attrs  []string `json:"attrs"`
	Groups int      `json:"groups"`
	Tau    int      `json:"tau"`
	Radius float64  `json:"radius,omitempty"`
	// BuildMS is the offline build cost in milliseconds.
	BuildMS float64 `json:"build_ms"`
}

func infoOf(p *partition.Partitioning) *PartitionInfo {
	return &PartitionInfo{
		Attrs:   append([]string(nil), p.Attrs...),
		Groups:  p.NumGroups(),
		Tau:     p.Tau,
		Radius:  p.Omega,
		BuildMS: float64(p.BuildTime.Microseconds()) / 1000,
	}
}

// Partitioning warms (if necessary) and describes the session-wide
// partitioning.
func (s *Session) Partitioning() (*PartitionInfo, error) {
	attrs := s.partitionAttrsFor(nil)
	s.d.dataMu.RLock()
	defer s.d.dataMu.RUnlock()
	e, err := s.resolve(partKey(attrs), attrs)
	if err != nil {
		return nil, err
	}
	return infoOf(e.part.Load()), nil
}

// SetSolver replaces a method's strategy with the given solver — a seam
// for tests that need to inject instrumented or blocking strategies —
// and turns that method's solution cache off, so every execution
// reaches the solver. It must be called before the session serves
// traffic.
func (s *Session) SetSolver(m Method, solver Solver) {
	s.solvers[m] = solver
	s.engines[m].NoCache = true
}

// CacheStats snapshots the solution-cache counters per method, for the
// methods whose engine has evaluated anything.
func (s *Session) CacheStats() map[Method]CacheStats {
	out := make(map[Method]CacheStats, len(s.engines))
	for m, e := range s.engines {
		if cs := e.Stats(); cs.Hits+cs.Misses > 0 {
			out[m] = cs
		}
	}
	return out
}

// Incumbents reports the total number of improving incumbents streamed
// by this session's executions — the anytime-results counter a serving
// layer surfaces in its statistics.
func (s *Session) Incumbents() uint64 { return s.incumbents.Load() }

// RadiusForEpsilon computes the radius limit ω that guarantees a
// (1±ε)-style approximation bound over the given attributes (Equation 1
// of the paper); pass the result to WithRadiusLimit.
func RadiusForEpsilon(rel *relation.Relation, attrs []string, eps float64, maximize bool) (float64, error) {
	return partition.RadiusForEpsilon(rel, attrs, eps, maximize)
}
