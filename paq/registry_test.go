package paq

import (
	"slices"
	"sync"
	"testing"

	"repro/internal/engine"
)

// TestFailedBuildKeepsEntryRegistered: a failed build leaves its entry
// registered (unbuilt, invisible to each) for the next caller to retry on,
// so callers racing on it — failing or not — end with the one registered
// entry built once, never holding an entry the registry dropped, which no
// mutation would maintain and no snapshot persist.
func TestFailedBuildKeepsEntryRegistered(t *testing.T) {
	s, _ := pinFixture(t, WithMethod(MethodDirect))
	good, bad := []string{"cost", "gain"}, []string{"nosuch"}
	key := s.regKey(good)
	resolve := func(attrs []string) (*partEntry, error) {
		s.d.dataMu.RLock()
		defer s.d.dataMu.RUnlock()
		return s.resolve(key, attrs, true)
	}
	if _, err := resolve(bad); err == nil {
		t.Fatal("build over an unknown attribute succeeded")
	}
	if e := s.d.entry(key, false); e == nil || e.part.Load() != nil {
		t.Fatalf("after a failed build the entry is %+v, want registered and unbuilt", e)
	}
	if ws := s.WarmSets(); len(ws) != 0 {
		t.Fatalf("unbuilt entry listed as warm: %+v", ws)
	}

	got := make([]*partEntry, 16)
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i], _ = resolve([][]string{bad, good}[i%2])
		}()
	}
	wg.Wait()
	reg := s.d.entry(key, false)
	if reg.part.Load() == nil {
		t.Fatal("registered entry still unbuilt after successful callers")
	}
	for i, e := range got {
		if e != nil && e != reg {
			t.Errorf("caller %d resolved to an entry that is not the registered one", i)
		}
	}
	if builds := s.AdvisorStats().PartBuilds; builds != 1 {
		t.Errorf("%d partitioning builds counted, want 1", builds)
	}
}

// TestSetSolverReplacesRegistration: swapping a method's engine swaps its
// registration too, so mutations stop invalidating the engine it replaced.
func TestSetSolverReplacesRegistration(t *testing.T) {
	s, _ := pinFixture(t, WithMethod(MethodDirect))
	before := len(s.d.engines)
	old := s.engineFor(MethodDirect)
	s.SetSolver(MethodDirect, engine.Direct{})
	if got := len(s.d.engines); got != before {
		t.Errorf("%d engines registered after SetSolver, want %d", got, before)
	}
	if slices.Contains(s.d.engines, old) || !slices.Contains(s.d.engines, s.engineFor(MethodDirect)) {
		t.Error("registration does not follow the session's engine slot")
	}
}
