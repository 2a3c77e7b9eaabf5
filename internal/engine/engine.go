// Package engine is the evaluation entry point the paq SDK calls
// instead of the individual strategies. The command-line tools, the
// benchmark harness and the examples go through paq, never here: the
// SDK boundary (docs/INVARIANTS.md) forbids them this import. Outside
// tests, only paq and benchmarks/paqbench import engine.
//
// It contributes two things on top of the strategy packages:
//
//   - one Solver interface with the three evaluation strategies of the
//     paper — NAIVE (Section 2), DIRECT (Section 3), and SKETCHREFINE
//     (Section 4) — as interchangeable values; what varies per call (a
//     pinned partitioning view, an incumbent listener) travels in a Call;
//   - a solution cache per engine: identical queries over the same data
//     are solved once, concurrent duplicates share one solve, and only
//     definitive outcomes are retained (an Engine is safe for concurrent
//     use; callers that want a batch fan Evaluate out themselves).
//
// Every solve takes a context.Context whose cancellation or deadline
// reaches all the way into the simplex iterations of an in-flight ILP.
package engine

import (
	"context"
	"errors"
	"fmt"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/ilp"
	"repro/internal/naive"
	"repro/internal/obs"
	"repro/internal/partition"
	"repro/internal/relation"
	"repro/internal/sketchrefine"
)

// Solver is one evaluation strategy for compiled package queries. Solve
// must honor ctx: cancellation or a deadline aborts the evaluation and
// returns the context's error. Implementations must be safe for
// concurrent use — Engine calls Solve from many goroutines.
type Solver interface {
	// Solve evaluates the query and returns the chosen package.
	Solve(ctx context.Context, spec *core.Spec, call Call) (*core.Package, *core.EvalStats, error)
}

// Call carries what one evaluation adds to a strategy's fixed
// configuration. The zero value is a plain solve; a strategy ignores
// the inputs that do not apply to it.
type Call struct {
	// Part, when non-nil, replaces a partitioned strategy's own
	// partitioning for this call — the seam snapshot-pinned solves use to
	// run over a frozen view whose relation matches their pinned version.
	Part *partition.Partitioning
	// OnIncumbent, when non-nil, receives the solve's improving
	// incumbents while it runs (anytime results; Naive has no stream
	// worth forwarding). It is called synchronously on the solving
	// goroutine.
	OnIncumbent core.IncumbentFunc
	// KeyPrefix is prepended to the solution-cache key. A caller serving
	// several partitionings from one engine passes each one's shape key,
	// so answers refined over different partitionings never collide.
	KeyPrefix string
}

// Direct is the paper's DIRECT strategy: one ILP over the whole base
// relation, solved by the black-box solver.
type Direct struct {
	Opt ilp.Options
}

// Solve implements Solver.
func (d Direct) Solve(ctx context.Context, spec *core.Spec, call Call) (*core.Package, *core.EvalStats, error) {
	return core.Direct(ctx, spec, d.Opt, call.OnIncumbent)
}

// Naive is the traditional-SQL self-join baseline of Section 2. It only
// supports REPEAT 0 queries with a strict cardinality constraint.
type Naive struct {
	Opt naive.Options
}

// Solve implements Solver.
func (n Naive) Solve(ctx context.Context, spec *core.Spec, _ Call) (*core.Package, *core.EvalStats, error) {
	t0 := time.Now()
	res, err := naive.EvaluateCtx(ctx, spec, n.Opt)
	stats := &core.EvalStats{Subproblems: 1, SolveTime: time.Since(t0)}
	if err != nil {
		if errors.Is(err, naive.ErrTimeout) {
			if cerr := ctx.Err(); cerr != nil {
				return nil, stats, cerr
			}
			if res != nil && res.Package != nil {
				// Options.Timeout expired with a feasible (possibly
				// suboptimal) package in hand: return it, matching the
				// AcceptIncumbent behavior of the ILP-based strategies.
				stats.Truncated = true
				return res.Package, stats, nil
			}
		}
		return nil, stats, err
	}
	return res.Package, stats, nil
}

// SketchRefine is the paper's scalable strategy over a shared offline
// partitioning: one evaluation is one refinement order, the one Opt.Seed
// selects.
type SketchRefine struct {
	// Part is the offline partitioning the strategy refines over. It is
	// shared read-only across all concurrent evaluations.
	Part *partition.Partitioning
	// Opt configures the evaluation.
	Opt sketchrefine.Options
}

// Solve implements Solver: the call's partitioning view and incumbent
// listener replace the configured ones for this evaluation only (s is a
// copy).
func (s SketchRefine) Solve(ctx context.Context, spec *core.Spec, call Call) (*core.Package, *core.EvalStats, error) {
	if call.Part != nil {
		s.Part = call.Part
	}
	if call.OnIncumbent != nil {
		s.Opt.OnIncumbent = call.OnIncumbent
	}
	return sketchrefine.EvaluateCtx(ctx, spec, s.Part, s.Opt)
}

// Result is the outcome of one engine evaluation.
type Result struct {
	Pkg   *core.Package
	Stats *core.EvalStats
	Err   error
	// Cached reports that the result was served from the engine's
	// solution cache instead of a fresh solve.
	Cached bool
	// Time is the wall-clock evaluation time (zero for cache hits).
	Time time.Duration
}

// Engine evaluates package queries with a pluggable strategy and a
// solution cache that deduplicates identical queries against the same
// strategy (for SketchRefine: the same shared partitioning). An Engine
// is safe for concurrent use.
type Engine struct {
	// Solver is the evaluation strategy.
	Solver Solver
	// NoCache disables the solution cache (every Evaluate solves).
	NoCache bool
	// MaxCacheEntries bounds the solution cache; when full, an arbitrary
	// entry is evicted to make room (the cache is an optimization, not a
	// registry, so approximate eviction is fine). 0 means
	// DefaultMaxCacheEntries; negative means unbounded.
	MaxCacheEntries int

	mu    sync.Mutex
	cache map[string]*cacheEntry

	// hits/misses/evictions/invalidations instrument the solution cache
	// for long-lived services (paqld's /stats endpoint); see CacheStats.
	hits          atomic.Uint64
	misses        atomic.Uint64
	evictions     atomic.Uint64
	invalidations atomic.Uint64
}

// CacheStats is a snapshot of the engine's solution-cache counters.
type CacheStats struct {
	// Hits counts Evaluate calls served from a completed or in-flight
	// cache entry (duplicate solves shared with the owner count as hits).
	Hits uint64
	// Misses counts Evaluate calls that claimed a key and solved
	// (including NoCache evaluations).
	Misses uint64
	// Evictions counts entries dropped to respect MaxCacheEntries.
	Evictions uint64
	// Invalidations counts entries dropped because their input relation
	// moved past the version they were solved at (see InvalidateRel).
	Invalidations uint64
	// Entries is the current number of cached solutions.
	Entries int
}

// Stats returns a point-in-time snapshot of the cache counters.
func (e *Engine) Stats() CacheStats {
	e.mu.Lock()
	entries := len(e.cache)
	e.mu.Unlock()
	return CacheStats{
		Hits:          e.hits.Load(),
		Misses:        e.misses.Load(),
		Evictions:     e.evictions.Load(),
		Invalidations: e.invalidations.Load(),
		Entries:       entries,
	}
}

// InvalidateRel drops every completed cache entry whose spec reads the
// given relation at a version older than the relation's current one.
// Because SpecKey embeds the version, such entries can never be hit
// again; dropping them eagerly releases the packages they pin without
// flushing entries for other relations or for the current version.
// In-flight entries are left alone (their owner is still solving; they
// are keyed under the version the solve started at and will be dropped
// by the next invalidation if stale). It returns the number of entries
// dropped.
func (e *Engine) InvalidateRel(rel *relation.Relation) int {
	current := rel.Version()
	e.mu.Lock()
	defer e.mu.Unlock()
	dropped := 0
	for key, ent := range e.cache {
		if ent.spec.Rel.Identity() != rel.Identity() || ent.ver == current {
			continue
		}
		select {
		case <-ent.done:
		default:
			continue // still solving
		}
		delete(e.cache, key)
		dropped++
	}
	e.invalidations.Add(uint64(dropped))
	return dropped
}

// DefaultMaxCacheEntries bounds the solution cache when
// Engine.MaxCacheEntries is zero. Each entry pins a package and its
// input relation, so an unbounded cache on a long-lived engine serving
// a stream of distinct queries would grow without limit.
const DefaultMaxCacheEntries = 4096

// cacheEntry is a singleflight slot: the first goroutine to claim a key
// solves and closes done; later goroutines wait on done and share res.
// spec pins the compiled query (and through it the input relation) for
// the entry's lifetime: SpecKey uses their addresses as identity, which
// is only sound while those addresses cannot be reused.
type cacheEntry struct {
	done chan struct{}
	res  Result
	spec *core.Spec
	// ver is the relation version the entry was keyed (and solved) at;
	// InvalidateRel compares it against the live version.
	ver uint64
}

// New returns an engine using the given strategy.
func New(s Solver) *Engine {
	return &Engine{Solver: s}
}

// Evaluate runs one query through the engine. Identical queries (same
// constraints, objective, and input relation) are solved once and served
// from the cache afterwards; concurrent duplicates share a single solve.
//
// Only definitive outcomes are cached: a package, or a proven
// infeasibility verdict. Wall-clock-dependent failures — cancellation,
// deadline, solver resource limits — say nothing about the query, so
// they are never retained, and a duplicate that was waiting on a solve
// aborted by the *owner's* context retries with its own.
func (e *Engine) Evaluate(ctx context.Context, spec *core.Spec) Result {
	return e.EvaluateCall(ctx, spec, Call{})
}

// EvaluateCall is Evaluate with per-call inputs (see Call). A
// partitioning view still shares the engine's solution cache with head
// solves — it holds the same groups at the same relation version, so
// keys and results are interchangeable. The incumbent stream comes from
// a live solve only: a cache hit returns the finished result immediately
// with no intermediate incumbents, and a caller that joins an in-flight
// duplicate solve shares its result but not its stream (the callback
// was bound by the first caller).
func (e *Engine) EvaluateCall(ctx context.Context, spec *core.Spec, call Call) Result {
	if e.NoCache {
		e.misses.Add(1)
		obs.FromContext(ctx).SetAttrStr("cache", "off")
		return e.solve(ctx, spec, call)
	}
	key := specKey(call.KeyPrefix, spec)

	for {
		e.mu.Lock()
		if e.cache == nil {
			e.cache = make(map[string]*cacheEntry)
		}
		if ent, ok := e.cache[key]; ok {
			e.mu.Unlock()
			if sp := obs.FromContext(ctx); sp != nil {
				// "hit" when the entry is already solved, "joined" when
				// this caller waits on another caller's in-flight solve
				// (joined results carry no inner spans — the owner's
				// trace has them).
				select {
				case <-ent.done:
					sp.SetAttrStr("cache", "hit")
				default:
					sp.SetAttrStr("cache", "joined")
				}
			}
			select {
			case <-ent.done:
				r := ent.res
				if ctxErr(r.Err) && ctx.Err() == nil {
					// The owning caller's solve was aborted by *its*
					// context, but this caller is still live: the entry
					// is already being dropped, so claim the key and
					// solve afresh. Other non-definitive outcomes
					// (truncated incumbents, budget failures) are shared
					// with concurrent waiters — this is the very solve
					// they were waiting on, and retrying serially would
					// be slower than having run without a cache — they
					// just aren't retained for future calls.
					continue
				}
				r.Cached = true
				r.Time = 0 // the solve's cost was paid by the first caller
				e.hits.Add(1)
				return r
			case <-ctx.Done():
				return Result{Err: ctx.Err()}
			}
		}
		limit := e.MaxCacheEntries
		if limit == 0 {
			limit = DefaultMaxCacheEntries
		}
		if limit > 0 && len(e.cache) >= limit {
			for k := range e.cache {
				delete(e.cache, k)
				e.evictions.Add(1)
				break
			}
		}
		ent := &cacheEntry{done: make(chan struct{}), spec: spec, ver: spec.Rel.Version()}
		e.cache[key] = ent
		e.mu.Unlock()
		e.misses.Add(1)
		obs.FromContext(ctx).SetAttrStr("cache", "miss")

		ent.res = e.solve(ctx, spec, call)
		if !definitive(ent.res) {
			// Drop the entry before waking waiters so their retry finds
			// the key free.
			e.mu.Lock()
			if e.cache[key] == ent {
				delete(e.cache, key)
			}
			e.mu.Unlock()
		}
		close(ent.done)
		return ent.res
	}
}

// definitive reports whether an evaluation outcome is a property of the
// query itself (and hence cacheable): a non-truncated package, or an
// infeasibility verdict. Cancellation, deadlines, solver resource
// limits, and budget-truncated incumbents depend on wall clock and
// machine load — a retry could succeed or improve.
func definitive(r Result) bool {
	if r.Stats != nil && r.Stats.Truncated {
		// Any truncated solve taints the outcome, success or failure: an
		// infeasibility verdict built on a budget-limited sub-solution
		// (e.g. a poor truncated sketch leading to ErrFalseInfeasible)
		// might not recur with the full budget.
		return false
	}
	if r.Err != nil {
		return errors.Is(r.Err, core.ErrInfeasible) || errors.Is(r.Err, sketchrefine.ErrFalseInfeasible)
	}
	return true
}

// ctxErr reports whether an error is a context cancellation or deadline.
func ctxErr(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

func (e *Engine) solve(ctx context.Context, spec *core.Spec, call Call) Result {
	t0 := time.Now()
	pkg, stats, err := e.Solver.Solve(ctx, spec, call)
	return Result{Pkg: pkg, Stats: stats, Err: err, Time: time.Since(t0)}
}

// SpecKey fingerprints a compiled query for the solution cache: the
// input relation's identity *at its current version* plus QueryKey's
// rendering of the query. Two specs with equal keys describe the same
// optimization problem over the same data; mutating the relation bumps
// its version, so entries solved against older data become unreachable
// instead of being served stale (InvalidateRel reclaims them). (The
// relation's address is sound as identity because every cache entry
// pins its relation for the entry's lifetime.)
func SpecKey(spec *core.Spec) string { return specKey("", spec) }

func specKey(prefix string, spec *core.Spec) string {
	var b strings.Builder
	b.WriteString(prefix)
	// Key on the relation's identity, not the view pointer: a snapshot
	// and its head at the same version hold identical data, so solves
	// pinned to different snapshots of one dataset share cache entries.
	fmt.Fprintf(&b, "rel=%p@v%d", spec.Rel.Identity(), spec.Rel.Version())
	renderQuery(&b, spec, true)
	return b.String()
}

// QueryKey is the relation-independent part of SpecKey: the canonical
// rendering of the REPEAT bound, base predicate, restrictions,
// constraints, and objective, constants included. Callers that name the
// relation their own way (a plan's displayed cache key) prefix it.
func QueryKey(spec *core.Spec) string {
	var b strings.Builder
	renderQuery(&b, spec, true)
	return b.String()
}

// ShapeKey fingerprints a query's *structure* for the adaptive
// planner: unlike SpecKey it deliberately ignores the data (no
// relation identity, no version, no constraint right-hand sides — only
// an order-of-magnitude size bucket), so executions of the same query
// template at different constants and dataset versions pool their
// observed outcomes. Two statements with equal shape keys are expected
// to behave alike under each evaluation method — which is exactly the
// granularity the advisor scores at. nBase is spec.CountBase(), which
// the caller planning the statement has already taken.
func ShapeKey(spec *core.Spec, nBase int) string {
	var b strings.Builder
	// log2 bucket of the eligible-row count: method trade-offs shift
	// with problem size, but pooling within a 2x band keeps shapes warm
	// across inserts and deletes.
	bucket := 0
	for n := nBase; n > 0; n >>= 1 {
		bucket++
	}
	fmt.Fprintf(&b, "rel=%s;size=2^%d", spec.Rel.Name(), bucket)
	renderQuery(&b, spec, false)
	return b.String()
}

// renderQuery is the one renderer behind SpecKey, QueryKey and ShapeKey.
// It appends the REPEAT bound, base predicate, restrictions, constraints
// and objective to b, each introduced by ';'. With consts it prints the
// constraint right-hand sides and the objective offset, which identify
// one optimization problem; without, only the structure remains.
//
// Predicates without a faithful rendering — a FuncPred with no Desc
// prints "<func>" — fall back to pointer identity so distinct anonymous
// predicates never collide: top-level ones by predicate pointer, and
// (with consts, where a collision would serve a wrong cached answer)
// ones nested inside coefficient renderings, e.g. a CondCoef's gate, by
// keying the whole spec on its own identity. The PaQL compiler always
// sets Desc, so translated queries never pay either fallback.
func renderQuery(b *strings.Builder, spec *core.Spec, consts bool) {
	start := b.Len()
	b.WriteString(";repeat=" + strconv.Itoa(spec.Repeat))
	pred := func(tag string, p relation.Predicate) {
		s := p.String()
		if s == "<func>" {
			fmt.Fprintf(b, ";%s=<func>@%p", tag, p)
			return
		}
		fmt.Fprintf(b, ";%s=%s", tag, s)
	}
	if spec.Base != nil {
		pred("base", spec.Base)
	}
	for _, r := range spec.Restrictions {
		pred("restrict", r)
	}
	for _, c := range spec.Constraints {
		fmt.Fprintf(b, ";cons=%s %s", c.Coef, c.Op)
		if consts {
			// strconv prints what %g would, minus a Fprintf per constant:
			// SpecKey runs on every cached execution.
			b.WriteString(" " + strconv.FormatFloat(c.RHS, 'g', -1, 64))
		}
	}
	if o := spec.Objective; o != nil {
		sense := "min"
		if o.Maximize {
			sense = "max"
		}
		fmt.Fprintf(b, ";obj=%s %s", sense, o.Coef)
		if consts {
			b.WriteString(" +" + strconv.FormatFloat(o.Offset, 'g', -1, 64))
		}
	}
	if consts && strings.Contains(b.String()[start:], "<func>") {
		// An anonymous predicate leaked into a coefficient rendering;
		// its text cannot distinguish different functions, so restrict
		// the key to this exact spec value.
		fmt.Fprintf(b, ";spec=%p", spec)
	}
}
