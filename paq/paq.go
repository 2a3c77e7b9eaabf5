package paq

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/advisor"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/naive"
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

// Solver is the pluggable evaluation-strategy interface of the
// underlying engine; it is exported for test seams (see
// Session.SetSolver), not for everyday use.
type Solver = engine.Solver

// Source is where Open loads the input relation from.
type Source interface {
	load() (*relation.Relation, error)
}

type csvSource struct{ path string }

func (s csvSource) load() (*relation.Relation, error) { return relation.LoadCSV(s.path) }

// CSV sources the input relation from a typed CSV file (header fields
// are name:type with type f=float, i=int, s=string, as written by the
// datagen tool).
func CSV(path string) Source { return csvSource{path: path} }

type tableSource struct{ rel *relation.Relation }

func (s tableSource) load() (*relation.Relation, error) {
	if s.rel == nil {
		return nil, fmt.Errorf("paq: nil relation")
	}
	return s.rel, nil
}

// Table sources the input relation from an in-memory table.
func Table(rel *relation.Relation) Source { return tableSource{rel: rel} }

// Session is an open package-query session over one input relation. It
// lazily builds and caches offline partitionings (one per distinct
// attribute set) and keeps one solution-caching engine per evaluation
// strategy, all shared by every statement prepared on it. A Session is
// safe for concurrent use.
type Session struct {
	rel *relation.Relation
	cfg config

	// dataMu serializes dataset mutations (InsertRows, DeleteRows,
	// UpdateRows — write side) against snapshot pinning and planning
	// (Prepare, and the brief pin at the start of Execute — read side).
	// It is shared by every Clone of the session, since clones share the
	// relation and its partitionings. Solves do NOT run under it: they
	// pin an immutable relation snapshot (plus a partitioning view) and
	// evaluate lock-free, so a mutation stream never stalls behind an
	// in-flight solve and vice versa.
	dataMu *sync.RWMutex

	// pin caches the current-version relation snapshot, shared by every
	// Clone (one snapshot per relation version serves all siblings).
	pin *pinCache

	mu        sync.Mutex
	parts     map[string]*lazyPart
	engines   map[string]*engine.Engine
	overrides map[Method]*engine.Engine

	// adv is the session's adaptive planner + partitioning advisor (nil
	// with WithoutAdvisor). partBuilds counts the offline partitioning
	// builds this session paid; advShared counts queries served by an
	// overlapping warm superset instead of a build; advPrewarmed and
	// advEvicted count AdvisorMaintain's actions; partsDirty marks warm
	// sets built or evicted since the last snapshot (so a restart keeps
	// them). All five counters are guarded by mu.
	adv          *advisor.Advisor
	partBuilds   uint64
	advShared    uint64
	advPrewarmed uint64
	advEvicted   uint64
	partsDirty   bool

	incumbents atomic.Uint64

	// st is the durability store (nil for a purely in-memory session).
	// It is shared by every Clone, like the relation it persists; all
	// store operations run under the dataMu write lock except DurStats
	// reads (read lock). warmParts is a durability counter (see
	// DurStats).
	st        *store.Store
	warmParts int

	// sibs registers every session sharing this relation (the original
	// and all its Clones). Compaction renumbers the shared relation, so
	// it must remap the partitionings of every sibling — a clone with a
	// different τ holds its own — not just the compacting session's.
	sibs *siblings
}

// siblings is the shared registry of sessions over one relation.
// Sessions are only ever added (they have no end-of-life separate from
// the relation's).
type siblings struct {
	mu  sync.Mutex
	all []*Session
}

func (sb *siblings) add(s *Session) {
	sb.mu.Lock()
	defer sb.mu.Unlock()
	sb.all = append(sb.all, s)
}

func (sb *siblings) list() []*Session {
	sb.mu.Lock()
	defer sb.mu.Unlock()
	return append([]*Session(nil), sb.all...)
}

// pinCache caches one immutable relation snapshot per version so that
// pinning a solve at steady state (no mutation since the last pin) is
// a single atomic load — no allocation, no copying. It is shared by
// every Clone of a session, exactly like the relation it snapshots.
type pinCache struct {
	// mu serializes snapshot creation (Relation.Snapshot writes the
	// head's copy-on-write flags, so concurrent read-locked pinners must
	// not race it).
	mu   sync.Mutex
	snap atomic.Pointer[relation.Relation]

	// pins counts executions pinned; waitNanos and maxWait record the
	// time spent acquiring the dataset read lock while pinning — the
	// only instant a solve can wait on the mutation lock, so a bounded
	// maxWait is the observable proof that ingest never blocks solves
	// for longer than one in-flight batch apply.
	pins      atomic.Uint64
	waitNanos atomic.Int64
	maxWait   atomic.Int64
}

// observeWait records one pin's lock-acquisition wait.
func (pc *pinCache) observeWait(wait time.Duration) {
	pc.pins.Add(1)
	w := int64(wait)
	pc.waitNanos.Add(w)
	for {
		cur := pc.maxWait.Load()
		if w <= cur || pc.maxWait.CompareAndSwap(cur, w) {
			return
		}
	}
}

// PinStats reports how executions interacted with the mutation lock
// while pinning their snapshots. Pins counts pinned executions (shared
// across Clones, like the snapshot cache itself); WaitTotal and WaitMax
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
	return PinStats{
		Pins:      s.pin.pins.Load(),
		WaitTotal: time.Duration(s.pin.waitNanos.Load()),
		WaitMax:   time.Duration(s.pin.maxWait.Load()),
	}
}

// at returns the cached snapshot of rel at its current version,
// refreshing the cache if a mutation has moved the version since the
// last pin. The caller must hold the dataset read lock (so the version
// cannot move underneath the check).
func (pc *pinCache) at(rel *relation.Relation) *relation.Relation {
	if snap := pc.snap.Load(); snap != nil && snap.Version() == rel.Version() {
		return snap
	}
	pc.mu.Lock()
	defer pc.mu.Unlock()
	if snap := pc.snap.Load(); snap != nil && snap.Version() == rel.Version() {
		return snap
	}
	snap := rel.Snapshot()
	pc.snap.Store(snap)
	return snap
}

// lazyPart builds one partitioning at most once, racing callers
// blocking on the same build. Once built, maint maintains it
// incrementally under dataset mutations (created on the first
// mutation; only ever touched under the session's write lock).
type lazyPart struct {
	once  sync.Once
	part  *partition.Partitioning
	err   error
	maint *partition.Maintainer
	// built flips to true when part is usable (successful build or
	// warm-start from a snapshot). It lets the advisor's warm-set lookup
	// check availability without risking a blocking build under a lock:
	// atomic Load after the builder's Store gives the happens-before
	// needed to read part lock-free.
	built atomic.Bool
	// view caches the frozen partitioning view bound to the current
	// pinned relation snapshot. Snapshot pointers are one-per-version
	// (see pinCache), so pointer equality on view.Rel is exactly "view
	// is current". viewMu serializes rebuilds after a mutation.
	viewMu sync.Mutex
	view   atomic.Pointer[partition.Partitioning]
}

// viewAt returns (building at most once per version) the frozen view of
// lp.part bound to the pinned snapshot snap. The caller must hold the
// dataset read lock and have pinned snap under that same lock.
func (lp *lazyPart) viewAt(snap *relation.Relation) *partition.Partitioning {
	if v := lp.view.Load(); v != nil && v.Rel == snap {
		return v
	}
	lp.viewMu.Lock()
	defer lp.viewMu.Unlock()
	if v := lp.view.Load(); v != nil && v.Rel == snap {
		return v
	}
	v := lp.part.View(snap)
	lp.view.Store(v)
	return v
}

// Open loads and validates the input relation and returns a session
// over it. Partitionings are built lazily on first need (or eagerly
// with WithWarmPartitioning); solver budgets, the evaluation method,
// and partitioning shape come from the options.
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
	var st *store.Store
	var boot *store.Snapshot
	if cfg.durDir != "" {
		var err error
		st, err = store.Open(cfg.durDir)
		if err != nil {
			return nil, err
		}
		boot = st.BootSnapshot()
	}
	var rel *relation.Relation
	if boot != nil {
		rel = boot.Rel
		if rel.Len() == 0 {
			// Mirror the empty-source rejection below: a store whose last
			// snapshot holds zero rows (every row deleted, then closed)
			// reopens to a session no query could run against.
			st.Close()
			return nil, fmt.Errorf("paq: durable state in %s holds an empty relation %q", cfg.durDir, rel.Name())
		}
	} else {
		if src == nil {
			if st != nil {
				st.Close()
				return nil, fmt.Errorf("paq: nil source and no durable state in %s", cfg.durDir)
			}
			return nil, fmt.Errorf("paq: nil source")
		}
		var err error
		rel, err = src.load()
		if err != nil {
			if st != nil {
				st.Close()
			}
			return nil, err
		}
		if rel.Len() == 0 {
			if st != nil {
				st.Close()
			}
			return nil, fmt.Errorf("paq: input relation %q is empty", rel.Name())
		}
	}
	s := &Session{
		rel:     rel,
		cfg:     cfg,
		dataMu:  &sync.RWMutex{},
		pin:     &pinCache{},
		parts:   make(map[string]*lazyPart),
		engines: make(map[string]*engine.Engine),
		st:      st,
		sibs:    &siblings{},
	}
	if !cfg.noAdvisor {
		s.adv = advisor.New(advisor.Config{})
	}
	s.sibs.add(s)
	if boot != nil {
		if err := s.recover(boot); err != nil {
			st.Close()
			return nil, err
		}
	}
	if s.adv != nil && st != nil {
		// Reload the advisor's persisted evidence; a missing or corrupt
		// sidecar just starts the advisor cold — never a recovery failure.
		if payload, err := st.LoadAdvisorState(); err == nil && payload != nil {
			_ = s.adv.RestoreState(payload)
		}
	}
	if cfg.warm {
		if _, err := s.sessionPartitioning(); err != nil {
			if st != nil {
				st.Close()
			}
			return nil, err
		}
	}
	if st != nil && boot == nil {
		// Fresh durable session: persist the baseline (data + any warm
		// partitioning) so the WAL has a snapshot to replay against.
		if err := s.Snapshot(); err != nil {
			st.Close()
			return nil, err
		}
	}
	return s, nil
}

// Rel returns the session's input relation. Treat it as read-only:
// mutate the dataset through InsertRows, DeleteRows, and UpdateRows,
// which keep the partitionings maintained and the solution caches
// coherent. Mutating the relation directly bypasses both.
func (s *Session) Rel() *relation.Relation { return s.rel }

// Clone returns a new session over the same relation with fresh engines
// and solution caches, applying any additional options on top of the
// original configuration. Already-built partitionings are shared —
// they are immutable and expensive — unless an option changes the
// partitioning shape (τ or the radius limit), in which case they are
// dropped and rebuilt lazily.
func (s *Session) Clone(opts ...Option) (*Session, error) {
	cfg := s.cfg
	for _, o := range opts {
		if err := o.apply(&cfg); err != nil {
			return nil, err
		}
	}
	c := &Session{
		rel:     s.rel,
		cfg:     cfg,
		dataMu:  s.dataMu, // clones share the relation, so they share its lock
		pin:     s.pin,    // ...and its snapshot cache (one snapshot per version)
		parts:   make(map[string]*lazyPart),
		engines: make(map[string]*engine.Engine),
		st:      s.st,   // ...and its durability store (one WAL per relation)
		sibs:    s.sibs, // ...and the sibling registry compaction remaps through
	}
	if !cfg.noAdvisor {
		// A clone learns afresh: its options may change solver budgets or
		// τ, which would invalidate the original's timing evidence.
		c.adv = advisor.New(advisor.Config{})
	}
	s.sibs.add(c)
	if cfg.tauFrac == s.cfg.tauFrac && cfg.tauAbs == s.cfg.tauAbs && cfg.radius == s.cfg.radius {
		s.mu.Lock()
		for k, p := range s.parts {
			c.parts[k] = p
		}
		s.mu.Unlock()
	}
	if cfg.warm {
		if _, err := c.sessionPartitioning(); err != nil {
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
	return int(float64(s.rel.Live())*s.cfg.tauFrac) + 1
}

// partitionAttrsFor resolves the partitioning attributes for a query:
// the explicitly configured set, else the query's own attributes
// (coverage 1, the paper's recommended setting), else every numeric
// column.
func (s *Session) partitionAttrsFor(queryAttrs []string) []string {
	if len(s.cfg.partAttrs) > 0 {
		return s.cfg.partAttrs
	}
	if len(queryAttrs) > 0 {
		return queryAttrs
	}
	return s.numericColumns()
}

func (s *Session) numericColumns() []string {
	var attrs []string
	for i := 0; i < s.rel.Schema().Len(); i++ {
		col := s.rel.Schema().Col(i)
		if col.Type.Numeric() {
			attrs = append(attrs, col.Name)
		}
	}
	return attrs
}

// partKey canonicalizes an attribute set for the partitioning cache.
func partKey(attrs []string) string {
	lower := make([]string, len(attrs))
	for i, a := range attrs {
		lower[i] = strings.ToLower(a)
	}
	sort.Strings(lower)
	return strings.Join(lower, ",")
}

// partitioningFor returns (building at most once) the partitioning over
// the given attributes.
func (s *Session) partitioningFor(attrs []string) (*partition.Partitioning, error) {
	if len(attrs) == 0 {
		return nil, fmt.Errorf("paq: no numeric attributes to partition on")
	}
	key := partKey(attrs)
	s.mu.Lock()
	lp, ok := s.parts[key]
	if !ok {
		lp = &lazyPart{}
		s.parts[key] = lp
	}
	s.mu.Unlock()
	lp.once.Do(func() {
		lp.part, lp.err = partition.Build(s.rel, partition.Options{
			Attrs:         attrs,
			SizeThreshold: s.tau(),
			RadiusLimit:   s.cfg.radius,
			Workers:       s.cfg.workers,
		})
		if lp.err == nil {
			lp.built.Store(true)
			s.mu.Lock()
			s.partBuilds++
			s.partsDirty = true
			s.mu.Unlock()
		}
	})
	return lp.part, lp.err
}

// lookupWarm returns an already-built partitioning that can serve a
// query over attrs without building anything: the exact attribute set
// if warm, else the smallest advisor-prewarmed superset (a quad-tree
// over a superset of the query's attributes partitions at least as
// finely on them, so SketchRefine's radius reasoning still holds).
// shared reports whether a superset — rather than the exact set — was
// used. It never triggers a build.
func (s *Session) lookupWarm(attrs []string) (p *partition.Partitioning, shared bool, ok bool) {
	key := partKey(attrs)
	s.mu.Lock()
	defer s.mu.Unlock()
	if lp, found := s.parts[key]; found && lp.built.Load() {
		return lp.part, false, true
	}
	if s.adv == nil {
		return nil, false, false
	}
	want := strings.Split(key, ",")
	var bestKey string
	var best *lazyPart
	for k, lp := range s.parts {
		if !lp.built.Load() || !s.adv.IsPrewarmed(k) {
			continue
		}
		if !subsetOf(want, strings.Split(k, ",")) {
			continue
		}
		if best == nil || len(lp.part.Attrs) < len(best.part.Attrs) ||
			(len(lp.part.Attrs) == len(best.part.Attrs) && k < bestKey) {
			best, bestKey = lp, k
		}
	}
	if best == nil {
		return nil, false, false
	}
	return best.part, true, true
}

// subsetOf reports whether every element of want appears in have; both
// slices are sorted lowercase key components.
func subsetOf(want, have []string) bool {
	i := 0
	for _, w := range want {
		for i < len(have) && have[i] < w {
			i++
		}
		if i >= len(have) || have[i] != w {
			return false
		}
		i++
	}
	return true
}

// partitioningForQuery resolves the partitioning serving a query over
// attrs: a warm exact or prewarmed-superset partitioning when one
// exists (no build), else the usual build-once path for the exact set.
// shared reports whether an overlapping superset served instead of the
// exact set.
func (s *Session) partitioningForQuery(attrs []string) (p *partition.Partitioning, shared bool, err error) {
	if p, shared, ok := s.lookupWarm(attrs); ok {
		if shared {
			s.mu.Lock()
			s.advShared++
			s.mu.Unlock()
		}
		return p, shared, nil
	}
	p, err = s.partitioningFor(attrs)
	return p, false, err
}

// observeAttrDemand feeds the advisor's query-log miner: the attribute
// set this statement would partition on, at the current dataset
// version. No-op without an advisor.
func (s *Session) observeAttrDemand(attrs []string) {
	if s.adv == nil || len(attrs) == 0 {
		return
	}
	s.adv.ObserveSet(partKey(attrs), attrs, s.rel.Version())
}

// livePart re-resolves a planned partitioning by attribute set at
// execution time. The advisor's maintenance pass may have evicted the
// one the plan captured; refining over an evicted partitioning would
// read stale row indices after a compaction, so Execute always goes
// through the live map (rebuilding on a miss). It returns the lazyPart
// wrapper, which carries the per-version frozen view cache solves pin.
// key, when non-empty, is the precomputed partKey(planned.Attrs) — the
// hot pin path passes the one cached on the statement so steady-state
// pinning allocates nothing.
func (s *Session) livePart(planned *partition.Partitioning, key string) (*lazyPart, error) {
	if planned == nil {
		return nil, fmt.Errorf("paq: no partitioning planned")
	}
	if key == "" {
		key = partKey(planned.Attrs)
	}
	s.mu.Lock()
	lp, ok := s.parts[key]
	s.mu.Unlock()
	if ok && lp.built.Load() {
		return lp, nil
	}
	if _, err := s.partitioningFor(planned.Attrs); err != nil {
		return nil, err
	}
	s.mu.Lock()
	lp = s.parts[key]
	s.mu.Unlock()
	return lp, nil
}

// pinned is everything one execution needs to solve lock-free: an
// immutable relation snapshot and — for SketchRefine — the live head
// partitioning (the engine's cache identity) plus a frozen view of it
// bound to the snapshot. All three are captured under one read-lock
// acquisition, so they are mutually consistent at one version.
type pinned struct {
	snap *relation.Relation
	part *partition.Partitioning // live head partitioning (engine identity)
	view *partition.Partitioning // frozen view over snap (SketchRefine only)
}

// pinExec pins the statement's execution: a brief read lock captures
// the snapshot and partitioning view, then the lock is dropped and the
// solve proceeds against the frozen state while ingest continues on
// head. Steady state (no mutation since the last pin) allocates
// nothing — the cached snapshot and view are reused.
func (s *Session) pinExec(st *Stmt, sp *obs.Span) (pinned, error) {
	t0 := time.Now()
	s.dataMu.RLock()
	wait := time.Since(t0)
	s.pin.observeWait(wait)
	if sp != nil {
		sp.SetAttrFloat("lock_wait_ms", float64(wait)/float64(time.Millisecond))
	}
	defer s.dataMu.RUnlock()
	p := pinned{snap: s.pin.at(s.rel)}
	if st.method == MethodSketchRefine {
		// Re-resolve the partitioning by attribute set: the advisor's
		// maintenance pass may have evicted the one the plan captured,
		// and refining over an evicted copy would read row indices a
		// later compaction has renumbered.
		vsp := sp.Child("partition_view")
		lp, err := s.livePart(st.part, st.partCacheKey)
		if err != nil {
			vsp.Finish()
			return pinned{}, err
		}
		p.part = lp.part
		p.view = lp.viewAt(p.snap)
		if vsp != nil {
			vsp.SetAttrInt("groups", int64(p.part.NumGroups()))
			vsp.Finish()
		}
	}
	return p, nil
}

// sessionPartitioning is the session-wide partitioning: the configured
// attribute set, or every numeric column — a superset of any query's
// attributes, so it can serve arbitrary queries (the setting a
// long-lived service wants warm).
func (s *Session) sessionPartitioning() (*partition.Partitioning, error) {
	return s.partitioningFor(s.partitionAttrsFor(nil))
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
	p, err := s.sessionPartitioning()
	if err != nil {
		return nil, err
	}
	return infoOf(p), nil
}

// engineFor returns (creating at most once) the engine serving a
// method; part must be non-nil for MethodSketchRefine and is part of
// the engine's identity, so distinct partitionings get distinct
// solution caches.
func (s *Session) engineFor(m Method, part *partition.Partitioning) *engine.Engine {
	s.mu.Lock()
	defer s.mu.Unlock()
	if e, ok := s.overrides[m]; ok {
		return e
	}
	key := string(m)
	if m == MethodSketchRefine {
		key += "|" + partKey(part.Attrs)
	}
	if e, ok := s.engines[key]; ok {
		return e
	}
	var solver engine.Solver
	switch m {
	case MethodNaive:
		solver = engine.Naive{Opt: naive.Options{Timeout: s.cfg.timeLimit}}
	case MethodSketchRefine:
		solver = engine.SketchRefine{
			Part:   part,
			Opt:    s.sketchOptions(),
			Racers: s.cfg.racers,
		}
	default:
		solver = engine.Direct{Opt: s.cfg.solverOptions()}
	}
	e := engine.New(solver)
	e.NoCache = s.cfg.noCache
	s.engines[key] = e
	return e
}

// SetSolver replaces the engine serving a method with one wrapping the
// given solver — a seam for tests that need to inject instrumented or
// blocking strategies. The injected engine never caches, so every
// execution reaches the solver. It must be called before the session
// serves traffic.
func (s *Session) SetSolver(m Method, solver Solver) {
	e := engine.New(solver)
	e.NoCache = true
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.overrides == nil {
		s.overrides = make(map[Method]*engine.Engine)
	}
	s.overrides[m] = e
}

// CacheStats snapshots the solution-cache counters of every engine the
// session has instantiated, aggregated per method.
func (s *Session) CacheStats() map[Method]CacheStats {
	s.mu.Lock()
	engines := make(map[Method][]*engine.Engine)
	for key, e := range s.engines {
		m := Method(strings.SplitN(key, "|", 2)[0])
		engines[m] = append(engines[m], e)
	}
	for m, e := range s.overrides {
		engines[m] = append(engines[m], e)
	}
	s.mu.Unlock()
	out := make(map[Method]CacheStats, len(engines))
	for m, es := range engines {
		var agg CacheStats
		for _, e := range es {
			cs := e.Stats()
			agg.Hits += cs.Hits
			agg.Misses += cs.Misses
			agg.Evictions += cs.Evictions
			agg.Invalidations += cs.Invalidations
			agg.Entries += cs.Entries
		}
		out[m] = agg
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
