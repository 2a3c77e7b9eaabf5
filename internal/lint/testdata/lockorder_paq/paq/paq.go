// Package paq mirrors the SDK's lock shape: a dataset d holding the data
// lock dataMu and the registry lock regMu, per-entry build locks
// (building), and each session's own mu.
package paq

// Resolve is the registry lookup: registry lock released before the
// build lock, re-taken under it, the session counter last.
func (s *session) Resolve(key string) {
	d := s.d
	d.dataMu.RLock()
	defer d.dataMu.RUnlock()
	d.regMu.Lock()
	e := d.parts[key]
	d.regMu.Unlock()
	e.building.Lock()
	defer e.building.Unlock()
	d.regMu.Lock()
	s.mu.Lock()
	s.n++
	s.mu.Unlock()
	d.regMu.Unlock()
}

// StatsInverted reads session counters, then reaches for the registry.
func (s *session) StatsInverted() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.d.regMu.Lock() // want `s\.d\.regMu\.Lock\(\) while s\.mu is held; the established order is dataMu→building→regMu→mu`
	s.d.regMu.Unlock()
}

// PinUnderRegistry takes the data read lock with the registry locked;
// the receivers differ (d vs s.d) and it is still one mutex.
func (s *session) PinUnderRegistry() {
	d := s.d
	d.regMu.Lock()
	s.d.dataMu.RLock() // want `s\.d\.dataMu\.RLock\(\) while d\.regMu is held`
	s.d.dataMu.RUnlock()
	d.regMu.Unlock()
}

// BuildUnderRegistry queues on a build while holding the registry, which
// the builder needs to publish its result.
func (s *session) BuildUnderRegistry(e *entry) {
	s.d.regMu.Lock()
	defer s.d.regMu.Unlock()
	e.building.Lock() // want `e\.building\.Lock\(\) while s\.d\.regMu is held`
	e.building.Unlock()
}

// WriteUnderSession takes the write lock from inside a session section,
// two steps up the chain.
func (s *session) WriteUnderSession() {
	s.mu.Lock()
	s.d.dataMu.Lock() // want `s\.d\.dataMu\.Lock\(\) while s\.mu is held`
	s.d.dataMu.Unlock()
	s.mu.Unlock()
}
