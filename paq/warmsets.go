package paq

import "sort"

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

// PartBuilds counts the offline partitioning builds this session paid
// (a recovered or shared partitioning costs none).
func (s *Session) PartBuilds() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.partBuilds
}
