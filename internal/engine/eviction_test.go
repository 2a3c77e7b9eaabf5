package engine_test

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/relation"
	"repro/internal/reltest"
	"repro/internal/translate"
)

// counting is a trivially fast strategy that counts its solves; it
// returns a fixed single-tuple package for any spec.
func counting(calls *atomic.Int64) strategy {
	return func(spec *core.Spec) engine.Func {
		return func(ctx context.Context) (*core.Package, *core.EvalStats, error) {
			calls.Add(1)
			if err := ctx.Err(); err != nil {
				return nil, &core.EvalStats{}, err
			}
			return firstRow(spec)
		}
	}
}

// firstRow is the single-tuple package of row 0.
func firstRow(spec *core.Spec) (*core.Package, *core.EvalStats, error) {
	pkg, err := core.NewPackage(spec.Rel, []int{0}, []int{1})
	if err != nil {
		return nil, &core.EvalStats{}, err
	}
	return pkg, &core.EvalStats{Subproblems: 1}, nil
}

// TestConcurrentCacheEvictionUnderLoad hammers one Engine from many
// goroutines with far more distinct queries than the cache bound, so the
// eviction path, the singleflight claim/drop path, and the hit path all
// run concurrently under -race. This is the long-lived-service regression
// test: paqld keeps one Engine per dataset alive across millions of
// requests, and the cache must stay bounded without corrupting results.
func TestConcurrentCacheEvictionUnderLoad(t *testing.T) {
	rel := relation.New("t", reltest.Schema(
		relation.Column{Name: "x", Type: relation.Float},
	))
	for i := 0; i < 8; i++ {
		reltest.Append(rel, relation.F(float64(i)))
	}

	const (
		maxEntries = 16
		workers    = 32
		distinct   = 40 * maxEntries // force constant eviction churn
		iters      = 40
	)
	specs := make([]*core.Spec, distinct)
	for i := range specs {
		spec, err := translate.Compile(fmt.Sprintf(`
SELECT PACKAGE(T) AS P FROM t T REPEAT 0
SUCH THAT COUNT(P.*) = 1 AND SUM(P.x) <= %d
MAXIMIZE SUM(P.x)`, 10+i), rel)
		if err != nil {
			t.Fatal(err)
		}
		specs[i] = spec
	}

	var calls atomic.Int64
	solve := counting(&calls)
	eng := &engine.Engine{}
	engine.SetMaxEntries(t, maxEntries)

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				spec := specs[(w*31+i*7)%distinct]
				res := evaluate(context.Background(), eng, solve, spec)
				if res.Err != nil {
					t.Errorf("worker %d iter %d: %v", w, i, res.Err)
					return
				}
				if res.Pkg == nil || res.Pkg.Size() != 1 {
					t.Errorf("worker %d iter %d: bad package %v", w, i, res.Pkg)
					return
				}
			}
		}(w)
	}
	wg.Wait()

	if got := eng.Stats().Entries; got > maxEntries {
		t.Errorf("cache grew to %d entries, bound is %d", got, maxEntries)
	}
	st := eng.Stats()
	total := st.Hits + st.Misses
	if total != workers*iters {
		t.Errorf("hits+misses = %d, want %d", total, workers*iters)
	}
	if st.Evictions == 0 {
		t.Error("no evictions recorded despite distinct queries >> cache bound")
	}
	if calls.Load() != int64(st.Misses) {
		t.Errorf("solver calls %d != cache misses %d", calls.Load(), st.Misses)
	}
	t.Logf("hits=%d misses=%d evictions=%d entries=%d solves=%d",
		st.Hits, st.Misses, st.Evictions, st.Entries, calls.Load())
}

// TestEvictionDoesNotCorruptInFlightSolves pins a subtle property: an
// entry evicted while its solve is still in flight must still deliver
// the owner's result to waiters that grabbed the entry before eviction.
func TestEvictionDoesNotCorruptInFlightSolves(t *testing.T) {
	rel := relation.New("t", reltest.Schema(
		relation.Column{Name: "x", Type: relation.Float},
	))
	reltest.Append(rel, relation.F(1))

	release := make(chan struct{})
	slow := gated(release)
	eng := &engine.Engine{}
	engine.SetMaxEntries(t, 1)

	spec, err := translate.Compile(`
SELECT PACKAGE(T) AS P FROM t T REPEAT 0
SUCH THAT COUNT(P.*) = 1 MAXIMIZE SUM(P.x)`, rel)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan engine.Result, 2)
	for i := 0; i < 2; i++ {
		go func() { done <- evaluate(context.Background(), eng, slow, spec) }()
	}
	// Let both goroutines attach to the same in-flight entry, then evict
	// it by solving a different query in the size-1 cache.
	time.Sleep(20 * time.Millisecond)
	other, err := translate.Compile(`
SELECT PACKAGE(T) AS P FROM t T REPEAT 0
SUCH THAT COUNT(P.*) = 1 MINIMIZE SUM(P.x)`, rel)
	if err != nil {
		t.Fatal(err)
	}
	close(release)
	if res := evaluate(context.Background(), eng, slow, other); res.Err != nil {
		t.Fatalf("evicting solve failed: %v", res.Err)
	}
	for i := 0; i < 2; i++ {
		res := <-done
		if res.Err != nil {
			t.Fatalf("waiter %d: %v", i, res.Err)
		}
		if res.Pkg == nil || res.Pkg.Size() != 1 {
			t.Fatalf("waiter %d: bad package", i)
		}
	}
}

// gated is a strategy whose solves block until gate closes.
func gated(gate <-chan struct{}) strategy {
	return func(spec *core.Spec) engine.Func {
		return func(ctx context.Context) (*core.Package, *core.EvalStats, error) {
			select {
			case <-gate:
			case <-ctx.Done():
				return nil, &core.EvalStats{}, ctx.Err()
			}
			return firstRow(spec)
		}
	}
}
