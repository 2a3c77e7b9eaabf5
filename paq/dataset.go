package paq

import (
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/partition"
	"repro/internal/relation"
	"repro/internal/store"
)

// dataset is the one owner of everything a Session and its Clones
// share: the relation, the lock that orders mutations against pins, the
// current generation, the durability store, and the registry of offline
// partitionings. The paper makes the partitioning a property of the
// relation (§4.1: built once, reused by every query), so it lives here —
// a Session only adds configuration and solution caches on top.
//
// Lock order: dataMu → partEntry.building → regMu → Session.mu →
// generation.fillMu, never the reverse (the lockorder rule in
// internal/lint holds the package to it).
type dataset struct {
	rel *relation.Relation

	// dataMu serializes dataset mutations (write side) against snapshot
	// pinning, planning and partitioning builds (read side). Solves do
	// NOT run under it: they pin an immutable relation snapshot (plus a
	// partitioning view) and evaluate lock-free, so a mutation stream
	// never stalls behind an in-flight solve and vice versa.
	dataMu sync.RWMutex
	pin    pinWaits

	// cur is the generation of the relation's current version. Only
	// advance stores it, under the write lock, so a reader holding the
	// read lock loads the generation of the version it reads.
	cur atomic.Pointer[generation]

	// st is the durability store (nil for a purely in-memory dataset).
	// All store operations run under the dataMu write lock except
	// DurStats reads (read lock).
	st *store.Store

	// regMu guards the registry: parts maps an attribute set (partKey)
	// to its partitioning, and an entry is never removed; engines lists
	// every registered solution cache over the relation. dirty (its own
	// atomic) marks partitionings built since the last snapshot, so a
	// restart keeps them.
	regMu   sync.Mutex
	parts   map[string]*partEntry
	engines []*engine.Engine
	dirty   atomic.Bool

	// warm counts the partitionings recovery warm-started (see DurStats);
	// written only before the dataset is shared.
	warm int
}

// generation is what one dataset version fixes: the version itself and,
// each taken on first need, the relation snapshot solves pin, every head
// partitioning's view bound to that snapshot (keyed by the head, so a
// rebuilt head never meets an older head's view), and the number of live
// rows that pass each filter Prepare has planned at it (keyed by the
// filter's canonical rendering, engine.FilterKey). It is not the
// replication epoch, which is a leader's term.
//
// A generation never outlives its version: advance replaces it, and it is
// garbage once the last solve that pinned from it ends. fillMu guards the
// lazy fills and is a leaf: nothing is locked under it.
type generation struct {
	version uint64

	fillMu sync.Mutex
	snap   *relation.Relation
	views  map[*partition.Partitioning]*partition.Partitioning
	counts map[string]int
}

// maxBaseCounts caps a generation's base counts: past it, an arbitrary
// entry makes room. An entry costs about 55 bytes of map (Go 1.24,
// measured at 1 024 entries) plus its key, the filter's rendering.
const maxBaseCounts = 1024

// snapshot returns the generation's snapshot of rel, taking it on the
// first pin (Relation.Snapshot counts itself on the head, so read-locked
// pinners take it under fillMu). Every later pin at the version — a
// steady-state solve — reuses it and allocates nothing, and the head's
// storage (columns, tombstones, member lists) is cloned at most once per
// snapshot, so at most once per version. The caller holds the read lock.
func (g *generation) snapshot(rel *relation.Relation) *relation.Relation {
	g.fillMu.Lock()
	defer g.fillMu.Unlock()
	if g.snap == nil {
		g.snap = rel.Snapshot()
	}
	return g.snap
}

// view returns head's frozen view bound to the generation's snapshot,
// building it on first need. The caller holds the read lock and has
// pinned the snapshot under it.
func (g *generation) view(head *partition.Partitioning) *partition.Partitioning {
	g.fillMu.Lock()
	defer g.fillMu.Unlock()
	v := g.views[head]
	if v == nil {
		v = head.View(g.snap)
		g.views[head] = v
	}
	return v
}

// baseCount returns how many live rows pass spec's filter — the base
// relation's size, which planning needs — and where the number came
// from: "memo", or "scan" when it was counted now. A filter with an
// anonymous predicate has no key and is counted every time. The caller
// holds the read lock, so the generation cannot move; the count reads
// the head, since taking a snapshot for it would make the next mutation
// clone whatever storage it touches. Two Prepares that miss together both
// count.
func (d *dataset) baseCount(spec *core.Spec) (int, string) {
	key, ok := engine.FilterKey(spec)
	if !ok {
		return spec.CountBase(), "scan"
	}
	g := d.cur.Load()
	g.fillMu.Lock()
	n, hit := g.counts[key]
	g.fillMu.Unlock()
	if hit {
		return n, "memo"
	}
	n = spec.CountBase()
	g.fillMu.Lock()
	defer g.fillMu.Unlock()
	if len(g.counts) >= maxBaseCounts {
		for k := range g.counts {
			delete(g.counts, k)
			break
		}
	}
	g.counts[key] = n
	return n, "scan"
}

// advance ends the current version, wherever the version can move: a
// mutation's apply (live or replayed), a compaction, and Open. It
// installs a fresh generation at the relation's version and reclaims
// solution-cache entries solved against older versions from every
// registered engine. The caller holds the write lock (or, in Open, has
// not shared the dataset yet), so no reader sees the swap half done.
func (d *dataset) advance() {
	d.cur.Store(&generation{
		version: d.rel.Version(),
		views:   make(map[*partition.Partitioning]*partition.Partitioning),
		counts:  make(map[string]int),
	})
	d.regMu.Lock()
	defer d.regMu.Unlock()
	for _, e := range d.engines {
		e.InvalidateRel(d.rel)
	}
}

// partEntry is one registered partitioning. part is nil until a caller
// builds it (concurrent callers queue on building; after a failed build
// the entry stays registered and the next caller retries) and set exactly
// once; the atomic load lets lookups test "built" without blocking on a
// build. maint maintains it incrementally under dataset mutations
// (created on the first one; only touched under the dataMu write lock).
type partEntry struct {
	// key is the canonical attribute set (partKey) and the prefix of the
	// solution-cache keys solved over this partitioning.
	key      string
	building sync.Mutex
	part     atomic.Pointer[partition.Partitioning]
	maint    *partition.Maintainer
}

// entry returns the registry entry under key (built or not); with create
// set, a missing one is registered unbuilt first.
func (d *dataset) entry(key string, create bool) *partEntry {
	d.regMu.Lock()
	defer d.regMu.Unlock()
	e := d.parts[key]
	if e == nil && create {
		e = &partEntry{key: key}
		d.parts[key] = e
	}
	return e
}

// each is the one loop over "every partitioning over the relation": it
// visits the built registry entries (maintenance, compaction, snapshot,
// MaintStats, QualityBound, WarmSets).
// The caller holds dataMu; the write side for anything that touches a
// maintainer or the partitioning itself.
func (d *dataset) each(fn func(*partEntry) error) error {
	d.regMu.Lock()
	entries := make([]*partEntry, 0, len(d.parts))
	for _, e := range d.parts {
		if e.part.Load() != nil {
			entries = append(entries, e)
		}
	}
	d.regMu.Unlock()
	for _, e := range entries {
		if err := fn(e); err != nil {
			return err
		}
	}
	return nil
}

// register puts a session's engine on the list version invalidation
// reaches. A session has no end-of-life call, so the engines of a
// dropped Clone stay listed for the dataset's lifetime.
func (d *dataset) register(e *engine.Engine) {
	d.regMu.Lock()
	d.engines = append(d.engines, e)
	d.regMu.Unlock()
}

// maintainers lists the maintainer of every built partitioning, created on
// first need. Caller holds the write lock, so no build is in flight.
func (d *dataset) maintainers() (ms []*partition.Maintainer) {
	_ = d.each(func(e *partEntry) error {
		if e.maint == nil {
			e.maint = partition.NewMaintainer(e.part.Load(), partition.MaintOptions{})
		}
		ms = append(ms, e.maint)
		return nil
	})
	return ms
}

// pinWaits counts executions pinned; waitNanos and maxWait record the
// time spent acquiring the dataset read lock while pinning — the only
// instant a solve can wait on the mutation lock, so a bounded maxWait is
// the observable proof that ingest never blocks solves for longer than
// one in-flight batch apply.
type pinWaits struct {
	pins      atomic.Uint64
	waitNanos atomic.Int64
	maxWait   atomic.Int64
}

// observeWait records one pin's lock-acquisition wait.
func (pw *pinWaits) observeWait(wait time.Duration) {
	pw.pins.Add(1)
	w := int64(wait)
	pw.waitNanos.Add(w)
	for {
		cur := pw.maxWait.Load()
		if w <= cur || pw.maxWait.CompareAndSwap(cur, w) {
			return
		}
	}
}
