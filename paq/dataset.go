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
// per-version snapshot cache, the durability store, and the registry of
// offline partitionings. The paper makes the partitioning a property of
// the relation (§4.1: built once, reused by every query), so it lives
// here — a Session only adds configuration and solution caches on top.
//
// Lock order: dataMu → partEntry.building → regMu → Session.mu →
// countMemo.countMu, never the reverse (the lockorder rule in
// internal/lint holds the package to it).
type dataset struct {
	rel *relation.Relation

	// dataMu serializes dataset mutations (write side) against snapshot
	// pinning, planning and partitioning builds (read side). Solves do
	// NOT run under it: they pin an immutable relation snapshot (plus a
	// partitioning view) and evaluate lock-free, so a mutation stream
	// never stalls behind an in-flight solve and vice versa.
	dataMu sync.RWMutex
	pin    pinCache

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

	// counts memoizes Prepare's base-relation sizes (baseCount).
	counts countMemo
}

// maxBaseCounts caps the base-count memo: past it, an arbitrary entry
// makes room. An entry costs about 55 bytes of map (Go 1.24, measured at
// 1 024 entries) plus its key, the filter's rendering.
const maxBaseCounts = 1024

// countMemo holds, for one dataset version, the number of live rows that
// pass each filter Prepare has planned at it, keyed by the filter's
// canonical rendering (engine.FilterKey). Meeting another version empties
// it, so an entry is only ever read at the version it was counted at.
// countMu is a leaf: nothing is locked under it.
type countMemo struct {
	countMu sync.Mutex
	ver     uint64
	n       map[string]int
}

// baseCount returns how many live rows pass spec's filter — the base
// relation's size, which planning needs — and where the number came
// from: "memo", or "scan" when it was counted now. A filter with an
// anonymous predicate has no key and is counted every time. The caller
// holds the read lock, so the version cannot move; the count reads the
// head, since a snapshot would make the next update clone every column.
// Two Prepares that miss together both count.
func (d *dataset) baseCount(spec *core.Spec) (int, string) {
	key, ok := engine.FilterKey(spec)
	if !ok {
		return spec.CountBase(), "scan"
	}
	m, ver := &d.counts, d.rel.Version()
	m.countMu.Lock()
	n, hit := m.n[key]
	hit = hit && m.ver == ver
	m.countMu.Unlock()
	if hit {
		return n, "memo"
	}
	n = spec.CountBase()
	m.countMu.Lock()
	defer m.countMu.Unlock()
	switch {
	case m.n == nil:
		m.n = make(map[string]int)
	case m.ver != ver:
		clear(m.n)
	case len(m.n) >= maxBaseCounts:
		for k := range m.n {
			delete(m.n, k)
			break
		}
	}
	m.ver = ver
	m.n[key] = n
	return n, "scan"
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
	// view caches the frozen partitioning view bound to the current
	// pinned relation snapshot. Snapshot pointers are one-per-version
	// (see pinCache), so pointer equality on view.Rel is exactly "view
	// is current". viewMu serializes rebuilds after a mutation.
	viewMu sync.Mutex
	view   atomic.Pointer[partition.Partitioning]
}

// viewAt returns (building at most once per version) the frozen view of
// the partitioning bound to the pinned snapshot snap. The caller must
// hold the dataset read lock and have pinned snap under that same lock.
func (e *partEntry) viewAt(snap *relation.Relation) *partition.Partitioning {
	if v := e.view.Load(); v != nil && v.Rel == snap {
		return v
	}
	e.viewMu.Lock()
	defer e.viewMu.Unlock()
	if v := e.view.Load(); v != nil && v.Rel == snap {
		return v
	}
	v := e.part.Load().View(snap)
	e.view.Store(v)
	return v
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

// propagate carries an applied mutation to everything derived from the
// relation: step runs on every partitioning's maintainer, then
// solution-cache entries solved against older versions are reclaimed.
func (d *dataset) propagate(ms []*partition.Maintainer, step func(*partition.Maintainer) error) error {
	for _, m := range ms {
		if err := step(m); err != nil {
			return err
		}
	}
	d.invalidateStale()
	return nil
}

// invalidateStale reclaims solution-cache entries solved against older
// dataset versions from every registered engine. Caller holds the write
// lock, so nothing waits on regMu meanwhile.
func (d *dataset) invalidateStale() {
	d.regMu.Lock()
	defer d.regMu.Unlock()
	for _, e := range d.engines {
		e.InvalidateRel(d.rel)
	}
}

// pinCache caches one immutable relation snapshot per version so that
// pinning a solve at steady state (no mutation since the last pin) is
// a single atomic load — no allocation, no copying.
type pinCache struct {
	// snapMu serializes snapshot creation (Relation.Snapshot writes the
	// head's copy-on-write flags, so concurrent read-locked pinners must
	// not race it).
	snapMu sync.Mutex
	snap   atomic.Pointer[relation.Relation]

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

// at returns the cached snapshot of rel at its current version,
// refreshing the cache if a mutation has moved the version since the
// last pin. The caller must hold the dataset read lock (so the version
// cannot move underneath the check).
func (pc *pinCache) at(rel *relation.Relation) *relation.Relation {
	if snap := pc.snap.Load(); snap != nil && snap.Version() == rel.Version() {
		return snap
	}
	pc.snapMu.Lock()
	defer pc.snapMu.Unlock()
	if snap := pc.snap.Load(); snap != nil && snap.Version() == rel.Version() {
		return snap
	}
	snap := rel.Snapshot()
	pc.snap.Store(snap)
	return snap
}
