// Package engine is the solution cache behind the paq SDK: identical
// queries over the same data are solved once, concurrent duplicates
// share one solve, only definitive outcomes are retained, and entries
// solved against an older relation version are reclaimed. It never
// picks an evaluation strategy — the caller passes the solve to Do (paq
// has the one DIRECT / SketchRefine / NAIVE dispatch). The command-line
// tools, the benchmark harness and the examples go through paq, never
// here: the SDK boundary (docs/INVARIANTS.md) forbids them this import.
// Outside tests, only paq and benchmarks/paqbench import engine.
//
// An Engine is safe for concurrent use; callers that want a batch fan
// Do out themselves.
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
	"repro/internal/obs"
	"repro/internal/partition"
	"repro/internal/relation"
	"repro/internal/sketchrefine"
)

// Func is the solve Do runs on a cache miss (on every call, with
// NoCache). It must honor ctx: cancellation or a deadline aborts it with
// the context's error.
type Func func(ctx context.Context) (*core.Package, *core.EvalStats, error)

// SketchRefine is the strategy Evaluate runs: the paper's scalable
// strategy over a fixed partitioning, one refinement order (the one
// Opt.Seed selects) per evaluation. Harness-only shim for
// benchmarks/paqbench's ladder (ROADMAP 1(c)); paq passes its solve to
// Do instead.
type SketchRefine struct {
	// Part is the offline partitioning the strategy refines over. It is
	// shared read-only across all concurrent evaluations.
	Part *partition.Partitioning
	// Opt configures the evaluation.
	Opt sketchrefine.Options
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

// Engine is one solution cache. The zero value is ready to use.
type Engine struct {
	// NoCache disables the cache: every Do solves (and counts a miss).
	NoCache bool
	// Solver is the strategy Evaluate runs. Harness-only shim for
	// benchmarks/paqbench's ladder (ROADMAP 1(c)).
	Solver SketchRefine

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
	// Hits counts Do calls served from a completed or in-flight
	// cache entry (duplicate solves shared with the owner count as hits).
	Hits uint64
	// Misses counts Do calls that claimed a key and solved (including
	// NoCache evaluations).
	Misses uint64
	// Evictions counts entries dropped to keep the cache bounded.
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

// maxEntries bounds the solution cache. Each entry pins a package and
// its input relation, so an unbounded cache on a long-lived engine
// serving a stream of distinct queries would grow without limit. When
// full, an arbitrary entry is evicted to make room (the cache is an
// optimization, not a registry, so approximate eviction is fine). A
// variable only so the eviction tests can lower it (export_test.go).
var maxEntries = 4096

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

// New returns an engine whose Evaluate runs s. Harness-only shim for
// benchmarks/paqbench's ladder (ROADMAP 1(c)).
func New(s SketchRefine) *Engine {
	return &Engine{Solver: s}
}

// Evaluate is Do with no key prefix over e.Solver. Harness-only shim for
// benchmarks/paqbench's ladder (ROADMAP 1(c)).
func (e *Engine) Evaluate(ctx context.Context, spec *core.Spec) Result {
	return e.Do(ctx, "", spec, func(ctx context.Context) (*core.Package, *core.EvalStats, error) {
		return sketchrefine.EvaluateCtx(ctx, spec, e.Solver.Part, e.Solver.Opt)
	})
}

// Do answers spec from the cache, or runs solve and caches its outcome.
// The key is prefix followed by SpecKey(spec): identical queries (same
// constraints, objective, and input relation at the same version) under
// one prefix are solved once and served from the cache afterwards, and
// concurrent duplicates share a single solve. A caller serving several
// partitionings from one engine passes each one's attribute set as the
// prefix, so answers refined over different partitionings never collide.
//
// Only definitive outcomes are cached: a package, or a proven
// infeasibility verdict. Wall-clock-dependent failures — cancellation,
// deadline, solver resource limits — say nothing about the query, so
// they are never retained, and a duplicate that was waiting on a solve
// aborted by the *owner's* context retries with its own. Incumbents
// stream from a live solve only: a cache hit returns the finished result
// at once, and a caller that joins an in-flight duplicate shares its
// result but not its stream (the first caller's solve is the one run).
func (e *Engine) Do(ctx context.Context, prefix string, spec *core.Spec, solve Func) Result {
	if e.NoCache {
		e.misses.Add(1)
		obs.FromContext(ctx).SetAttrStr("cache", "off")
		return run(ctx, solve)
	}
	key := specKey(prefix, spec)

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
		if len(e.cache) >= maxEntries {
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

		ent.res = run(ctx, solve)
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

// run times one solve.
func run(ctx context.Context, solve Func) Result {
	t0 := time.Now()
	pkg, stats, err := solve(ctx)
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
	renderQuery(&b, spec)
	return b.String()
}

// QueryKey is the relation-independent part of SpecKey: the canonical
// rendering of the REPEAT bound, base predicate, restrictions,
// constraints, and objective, constants included. Callers that name the
// relation their own way (a plan's displayed cache key) prefix it.
func QueryKey(spec *core.Spec) string {
	var b strings.Builder
	renderQuery(&b, spec)
	return b.String()
}

// renderQuery is the one renderer behind SpecKey and QueryKey, and its
// renderFilter part behind FilterKey. It appends the REPEAT bound, base
// predicate, restrictions, constraints (with their right-hand sides) and
// objective (with its offset) to b, each introduced by ';': together
// they identify one optimization problem.
//
// Predicates without a faithful rendering — a FuncPred with no Desc
// prints "<func>" — fall back to pointer identity so distinct anonymous
// predicates never collide: top-level ones by predicate pointer, and
// ones nested inside coefficient renderings, e.g. a CondCoef's gate
// (where a collision would serve a wrong cached answer), by keying the
// whole spec on its own identity. The PaQL compiler always sets Desc,
// so translated queries never pay either fallback.
func renderQuery(b *strings.Builder, spec *core.Spec) {
	start := b.Len()
	b.WriteString(";repeat=" + strconv.Itoa(spec.Repeat))
	renderFilter(b, spec)
	for _, c := range spec.Constraints {
		fmt.Fprintf(b, ";cons=%s %s", c.Coef, c.Op)
		// strconv prints what %g would, minus a Fprintf per constant:
		// SpecKey runs on every cached execution.
		b.WriteString(" " + strconv.FormatFloat(c.RHS, 'g', -1, 64))
	}
	if o := spec.Objective; o != nil {
		sense := "min"
		if o.Maximize {
			sense = "max"
		}
		fmt.Fprintf(b, ";obj=%s %s +%s", sense, o.Coef, strconv.FormatFloat(o.Offset, 'g', -1, 64))
	}
	if strings.Contains(b.String()[start:], "<func>") {
		// An anonymous predicate leaked into a coefficient rendering;
		// its text cannot distinguish different functions, so restrict
		// the key to this exact spec value.
		fmt.Fprintf(b, ";spec=%p", spec)
	}
}

// FilterKey is the part of QueryKey that decides which tuples are
// eligible: the rendering of the base predicate and the restrictions, ""
// when there are none. ok is false when a predicate, or one nested in
// it, renders as "<func>": that text cannot tell two functions apart, so
// the key identifies nothing.
func FilterKey(spec *core.Spec) (key string, ok bool) {
	var b strings.Builder
	renderFilter(&b, spec)
	key = b.String()
	return key, !strings.Contains(key, "<func>")
}

// renderFilter appends the base predicate and the restrictions to b, each
// introduced by ';'.
func renderFilter(b *strings.Builder, spec *core.Spec) {
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
}
