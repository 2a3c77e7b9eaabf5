package paq

import (
	"cmp"
	"math"
	"slices"
	"sort"

	"repro/internal/advisor"
)

// WarmSet describes one warm (built, in-memory) partitioning together
// with the advisor's evidence about it — the observability surface for
// eviction decisions (paqld exposes it via /stats).
type WarmSet struct {
	Attrs  []string `json:"attrs"`
	Groups int      `json:"groups"`
	// Uses counts queries that wanted exactly this attribute set;
	// LastUsedVersion is the dataset version at its most recent use
	// (both zero when the advisor never saw the set — e.g. a disabled
	// advisor or a set built before mining began).
	Uses            uint64 `json:"uses"`
	LastUsedVersion uint64 `json:"last_used_version"`
	// Pinned marks a session-wide partitioning (of this session or a
	// clone), which the warm-set budget never evicts.
	Pinned bool `json:"pinned,omitempty"`
}

// WarmSets lists the warm partitionings of the dataset, whichever
// session built them, sorted by attribute key for determinism.
func (s *Session) WarmSets() []WarmSet {
	s.d.dataMu.RLock()
	defer s.d.dataMu.RUnlock()
	var entries []*partEntry
	_ = s.d.each(func(e *partEntry) error {
		entries = append(entries, e)
		return nil
	})
	sort.Slice(entries, func(i, j int) bool { return entries[i].key < entries[j].key })
	out := make([]WarmSet, 0, len(entries))
	for _, e := range entries {
		p := e.part.Load()
		ws := WarmSet{
			Attrs:  append([]string(nil), p.Attrs...),
			Groups: p.NumGroups(),
			Pinned: e.pinned.Load(),
		}
		if s.adv != nil {
			if si, ok := s.adv.SetInfo(e.key); ok {
				ws.Uses = si.Uses
				ws.LastUsedVersion = si.LastVersion
			}
		}
		out = append(out, ws)
	}
	return out
}

// AdvisorStats snapshots the session's adaptive-planning and
// partitioning-advisor counters.
type AdvisorStats struct {
	// Enabled is false under WithoutAdvisor; every other field is then
	// zero.
	Enabled bool `json:"enabled"`
	// Outcomes/Decisions/ColdDecisions/Probes and Shapes are the
	// method-choice loop's counters (see internal/advisor).
	Outcomes      uint64 `json:"outcomes"`
	Decisions     uint64 `json:"decisions"`
	ColdDecisions uint64 `json:"cold_decisions"`
	Probes        uint64 `json:"probes"`
	Shapes        int    `json:"shapes"`
	// SetsTracked and HotSets are the attribute-set miner's counters.
	SetsTracked int `json:"sets_tracked"`
	HotSets     int `json:"hot_sets"`
	// PartBuilds counts offline partitioning builds this session paid;
	// Prewarmed counts the ones AdvisorMaintain made, Evicted its
	// evictions.
	PartBuilds uint64 `json:"part_builds"`
	Prewarmed  uint64 `json:"prewarmed"`
	Evicted    uint64 `json:"evicted"`
}

// AdvisorStats snapshots the advisor's counters (Enabled=false under
// WithoutAdvisor, with build counters still reported).
func (s *Session) AdvisorStats() AdvisorStats {
	st := AdvisorStats{Enabled: s.adv != nil}
	if s.adv != nil {
		a := s.adv.Stats()
		st.Outcomes = a.Outcomes
		st.Decisions = a.Decisions
		st.ColdDecisions = a.Cold
		st.Probes = a.Probes
		st.Shapes = a.Shapes
		st.SetsTracked = a.Sets
		st.HotSets = a.HotSets
	}
	s.mu.Lock()
	st.PartBuilds = s.partBuilds
	st.Prewarmed = s.advPrewarmed
	st.Evicted = s.advEvicted
	s.mu.Unlock()
	return st
}

// AdvisorPass reports what one AdvisorMaintain pass did.
type AdvisorPass struct {
	// Prewarmed lists hot attribute sets whose partitioning this pass
	// built; Evicted lists warm sets dropped to fit the budget.
	Prewarmed []string `json:"prewarmed,omitempty"`
	Evicted   []string `json:"evicted,omitempty"`
	// Persisted reports whether the advisor's evidence was flushed to
	// the durability store.
	Persisted bool `json:"persisted,omitempty"`
}

// AdvisorMaintain runs one partitioning-advisor maintenance pass: it
// evicts the least-recently-resolved unpinned warm sets of the dataset
// beyond the WithWarmSetBudget (whichever session built them),
// builds the partitionings of attribute sets the workload uses often
// that are not warm, most-used first, while the budget has room for
// them, and, on a durable session, persists the advisor's evidence so
// a restart keeps the tuning. The pass is meant for a maintenance ticker
// (paqld runs it alongside snapshotting), off the query path. A no-op
// under WithoutAdvisor.
func (s *Session) AdvisorMaintain() AdvisorPass {
	var pass AdvisorPass
	if s.adv == nil {
		return pass
	}
	d := s.d
	d.dataMu.RLock()
	var room int
	pass.Evicted, room = s.evictWarmSets()
	for _, h := range s.adv.HotSets() {
		key := partKey(h.Attrs)
		e := d.entry(key, false)
		pinned := e != nil && e.pinned.Load()
		switch {
		case e != nil && e.part.Load() != nil:
			continue // warm already: not the pass's build, nor a use
		case !pinned && room <= 0:
			continue // the next pass would evict it, and the one after rebuild it
		}
		// Advisory: an unbuildable set is just skipped.
		if _, err := s.resolve(key, h.Attrs, true); err == nil {
			pass.Prewarmed = append(pass.Prewarmed, h.Key)
			s.count(&s.advPrewarmed)
			if !pinned {
				room--
			}
		}
	}
	d.dataMu.RUnlock()
	if d.st != nil {
		// Store writes run under the dataset write lock (briefly — the
		// sidecar write is independent of the WAL).
		d.dataMu.Lock()
		if err := s.saveAdvisorState(); err == nil {
			pass.Persisted = true
		}
		d.dataMu.Unlock()
	}
	return pass
}

// evictWarmSets drops the least-recently-resolved unpinned partitionings
// beyond the budget, whoever built them, and returns how many more the
// budget has room for. The entry leaves the registry for every session;
// whichever next asks for the set rebuilds it lazily through resolve.
// The caller holds the dataset read lock.
func (s *Session) evictWarmSets() (evicted []string, room int) {
	budget := s.cfg.warmBudget
	if budget < 0 {
		return nil, math.MaxInt // unbounded
	}
	d := s.d
	var warm []*partEntry
	_ = d.each(func(e *partEntry) error {
		if !e.pinned.Load() {
			warm = append(warm, e)
		}
		return nil
	})
	if len(warm) <= budget {
		return nil, budget - len(warm)
	}
	// Recovered entries were never resolved (all 0): the key breaks ties.
	slices.SortFunc(warm, func(a, b *partEntry) int {
		return cmp.Or(cmp.Compare(a.lastUsed.Load(), b.lastUsed.Load()), cmp.Compare(a.key, b.key))
	})
	d.regMu.Lock()
	defer d.regMu.Unlock()
	for _, e := range warm[:len(warm)-budget] {
		if d.parts[e.key] != e {
			continue // a concurrent pass got there first
		}
		delete(d.parts, e.key)
		s.count(&s.advEvicted)
		evicted = append(evicted, e.key)
	}
	d.dirty.Store(true)
	return evicted, 0
}

// saveAdvisorState flushes the advisor's evidence to the store's
// sidecar. Callers hold the dataset write lock. Nil when there is
// nothing to persist (no advisor, or an in-memory session).
func (s *Session) saveAdvisorState() error {
	if s.adv == nil || s.d.st == nil {
		return nil
	}
	payload, err := s.adv.MarshalState()
	if err != nil {
		return err
	}
	return s.d.st.SaveAdvisorState(payload)
}

// reportOutcome feeds one execution's observed record to the advisor
// (no-op without one, or for statements prepared before the advisor
// computed a shape).
func (s *Session) reportOutcome(o advisor.Outcome) {
	if s.adv == nil || o.Shape == "" {
		return
	}
	s.adv.Observe(o)
}
