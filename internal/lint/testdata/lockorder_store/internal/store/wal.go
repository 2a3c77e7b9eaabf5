// Package store exercises the mu→syncMu order and the cond-wait rule on
// the WAL's group-commit shape: W holds mu, syncMu and syncCond.
package store

// Bad acquires the inner mutex while holding the outer one.
func (w *W) Bad() {
	w.syncMu.Lock()
	w.mu.Lock() // want `w\.mu\.Lock\(\) while w\.syncMu is held`
	w.mu.Unlock()
	w.syncMu.Unlock()
}

// BadUnderDefer: a deferred unlock holds syncMu to the end of the body.
func (w *W) BadUnderDefer() {
	w.syncMu.Lock()
	defer w.syncMu.Unlock()
	w.mu.Lock() // want `w\.mu\.Lock\(\) while w\.syncMu is held`
	w.mu.Unlock()
}

// Good takes the locks in the established order.
func (w *W) Good() {
	w.mu.Lock()
	w.syncMu.Lock()
	w.syncMu.Unlock()
	w.mu.Unlock()
}

// BadWait waits without the mutex the cond was built on.
func (w *W) BadWait() {
	w.syncCond.Wait() // want `w\.syncCond\.Wait\(\) outside w\.syncMu`
}

// GoodWait is the canonical cond loop.
func (w *W) GoodWait() {
	w.syncMu.Lock()
	for !w.ready {
		w.syncCond.Wait()
	}
	w.syncMu.Unlock()
}

// BranchRelease: lock state changed inside a branch stays in the branch.
func (w *W) BranchRelease(leader bool) {
	w.syncMu.Lock()
	if leader {
		w.syncMu.Unlock()
		w.mu.Lock()
		w.mu.Unlock()
		w.syncMu.Lock()
	} else {
		w.syncCond.Wait()
	}
	w.syncMu.Unlock()
}

// Spawn: goroutine bodies start with an empty held set.
func (w *W) Spawn() {
	w.syncMu.Lock()
	go func() {
		w.mu.Lock()
		w.mu.Unlock()
	}()
	w.syncMu.Unlock()
}
