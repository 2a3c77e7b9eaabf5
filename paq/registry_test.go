package paq

import (
	"context"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/core"
)

// TestFailedBuildKeepsEntryRegistered: a failed build leaves its entry
// registered (unbuilt, invisible to each) for the next caller to retry on,
// so callers racing on it — failing or not — end with the one registered
// entry built once, never holding an entry the registry dropped, which no
// mutation would maintain and no snapshot persist.
func TestFailedBuildKeepsEntryRegistered(t *testing.T) {
	s, _ := pinFixture(t, WithMethod(MethodDirect))
	good, bad := []string{"cost", "gain"}, []string{"nosuch"}
	key := partKey(good)
	resolve := func(attrs []string) (*partEntry, error) {
		s.d.dataMu.RLock()
		defer s.d.dataMu.RUnlock()
		return s.resolve(key, attrs)
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
	if builds := s.PartBuilds(); builds != 1 {
		t.Errorf("%d partitioning builds counted, want 1", builds)
	}
}

// TestSetSolverReplacesRegistration: SetSolver replaces a method's
// strategy, not its engine — the registration mutations invalidate stays
// as Open made it — and turns that method's cache off, so every
// execution reaches the injected solver.
func TestSetSolverReplacesRegistration(t *testing.T) {
	s, stmt := pinFixture(t, WithMethod(MethodDirect))
	registered := slices.Clone(s.d.engines)
	eng := s.engines[MethodDirect]
	solver := &countingSolver{}
	s.SetSolver(MethodDirect, solver)
	if !slices.Equal(s.d.engines, registered) || s.engines[MethodDirect] != eng {
		t.Error("SetSolver changed the session's engines or their registration")
	}
	for i := 0; i < 3; i++ {
		if _, err := stmt.Execute(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
	if got := solver.calls.Load(); got != 3 {
		t.Errorf("injected solver ran %d times for 3 executions, want 3 (cache off)", got)
	}
	if cs := s.CacheStats()[MethodDirect]; cs.Hits != 0 || cs.Misses != 3 || cs.Entries != 0 {
		t.Errorf("direct cache stats %+v, want 3 misses and nothing cached", cs)
	}
}

// countingSolver answers every query with its first base row and counts
// its calls.
type countingSolver struct{ calls atomic.Int64 }

func (c *countingSolver) Solve(ctx context.Context, spec *core.Spec) (*Package, *Stats, error) {
	c.calls.Add(1)
	pkg, err := core.NewPackage(spec.Rel, spec.BaseRows()[:1], []int{1})
	return pkg, &Stats{Subproblems: 1}, err
}
