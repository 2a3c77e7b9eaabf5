// Package paq mirrors the SDK's lock shape: a dataset shared by
// sessions, holding the data lock, the partitioning registry lock and
// per-entry build locks, under each session's own mutex.
package paq

import "sync"

type entry struct{ building sync.Mutex }

type dataset struct {
	dataMu sync.RWMutex
	regMu  sync.Mutex
	parts  map[string]*entry
}

type session struct {
	d  *dataset
	mu sync.Mutex
	n  int
}

// Resolve is the registry lookup: registry lock released before the
// build lock, re-taken under it, the session counter last.
func (s *session) Resolve(key string) {
	d := s.d
	d.dataMu.RLock()
	defer d.dataMu.RUnlock()
	d.regMu.Lock()
	e := d.parts[key]
	if e == nil {
		e = &entry{}
		d.parts[key] = e
	}
	d.regMu.Unlock()
	e.building.Lock()
	defer e.building.Unlock()
	d.regMu.Lock()
	s.mu.Lock()
	s.n++
	s.mu.Unlock()
	d.regMu.Unlock()
}

// Mutate takes the whole chain outermost first.
func (s *session) Mutate() {
	s.d.dataMu.Lock()
	s.d.regMu.Lock()
	s.d.regMu.Unlock()
	s.d.dataMu.Unlock()
	s.mu.Lock()
	s.mu.Unlock()
}
