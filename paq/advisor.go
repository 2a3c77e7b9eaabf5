package paq

import (
	"sort"

	"repro/internal/advisor"
)

// WarmSet describes one warm (built, in-memory) partitioning (paqld
// exposes the list via /stats).
type WarmSet struct {
	Attrs  []string `json:"attrs"`
	Groups int      `json:"groups"`
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
		out = append(out, WarmSet{Attrs: append([]string(nil), p.Attrs...), Groups: p.NumGroups()})
	}
	return out
}

// AdvisorStats snapshots the session's adaptive-planning counters and
// its partitioning builds.
type AdvisorStats struct {
	// Enabled is false under WithoutAdvisor; every other field but
	// PartBuilds is then zero.
	Enabled bool `json:"enabled"`
	// Outcomes/Decisions/ColdDecisions/Probes and Shapes are the
	// method-choice loop's counters (see internal/advisor).
	Outcomes      uint64 `json:"outcomes"`
	Decisions     uint64 `json:"decisions"`
	ColdDecisions uint64 `json:"cold_decisions"`
	Probes        uint64 `json:"probes"`
	Shapes        int    `json:"shapes"`
	// PartBuilds counts offline partitioning builds this session paid.
	PartBuilds uint64 `json:"part_builds"`
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
	}
	s.mu.Lock()
	st.PartBuilds = s.partBuilds
	s.mu.Unlock()
	return st
}

// SaveAdvisorState writes the advisor's evidence to the durability
// store's sidecar, so a restart keeps the tuning; Snapshot and Close
// write it too. It is meant for a maintenance ticker (paqld calls it
// on every tick), off the query path. A no-op without an advisor or
// without durability.
func (s *Session) SaveAdvisorState() error {
	if s.adv == nil || s.d.st == nil {
		return nil
	}
	// Store writes run under the dataset write lock (briefly — the
	// sidecar write is independent of the WAL).
	s.d.dataMu.Lock()
	defer s.d.dataMu.Unlock()
	return s.saveAdvisorState()
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
