package engine_test

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/ilp"
	"repro/internal/lp"
	"repro/internal/naive"
	"repro/internal/par"
	"repro/internal/partition"
	"repro/internal/relation"
	"repro/internal/sketchrefine"
	"repro/internal/translate"
	"repro/internal/workload"
)

func solverOpt() ilp.Options {
	return ilp.Options{MaxNodes: 50000, Gap: 1e-4, TimeLimit: 20 * time.Second}
}

// galaxyProblem builds a seeded Galaxy relation, a shared partitioning,
// and a deterministic parameter-sweep query stream over it.
func galaxyProblem(t *testing.T, n, queries int) (*partition.Partitioning, []*core.Spec) {
	t.Helper()
	rel := workload.Galaxy(n, 31)
	part, err := partition.Build(rel, partition.Options{
		Attrs:         []string{"ra", "dec", "redshift", "petrorad"},
		SizeThreshold: n/10 + 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	specs := make([]*core.Spec, 0, queries)
	for i := 0; i < queries; i++ {
		card := 3 + i%4
		bound := 0.8*float64(card) + 0.1*float64(i)
		spec, err := translate.Compile(fmt.Sprintf(`
SELECT PACKAGE(G) AS P FROM galaxy G REPEAT 0
SUCH THAT COUNT(P.*) = %d AND SUM(P.redshift) <= %.3f
MAXIMIZE SUM(P.petrorad)`, card, bound), rel)
		if err != nil {
			t.Fatal(err)
		}
		specs = append(specs, spec)
	}
	return part, specs
}

// strategy maps a spec to the solve a caller hands the engine, the way
// paq's dispatch builds one per execution.
type strategy func(spec *core.Spec) engine.Func

func direct(opt ilp.Options) strategy {
	return func(spec *core.Spec) engine.Func {
		return func(ctx context.Context) (*core.Package, *core.EvalStats, error) {
			return core.Direct(ctx, spec, opt, nil)
		}
	}
}

func sketchRefine(part *partition.Partitioning, opt sketchrefine.Options) strategy {
	return func(spec *core.Spec) engine.Func {
		return func(ctx context.Context) (*core.Package, *core.EvalStats, error) {
			return sketchrefine.EvaluateCtx(ctx, spec, part, opt)
		}
	}
}

func naiveStrategy(opt naive.Options) strategy {
	return func(spec *core.Spec) engine.Func {
		return func(ctx context.Context) (*core.Package, *core.EvalStats, error) {
			return naive.Solve(ctx, spec, opt)
		}
	}
}

// evaluate runs one spec through eng under no key prefix.
func evaluate(ctx context.Context, eng *engine.Engine, s strategy, spec *core.Spec) engine.Result {
	return eng.Do(ctx, "", spec, s(spec))
}

// evaluateAll is the tests' batch: it fans evaluate out over at most
// workers goroutines and returns the results in input order, after every
// goroutine has exited.
func evaluateAll(eng *engine.Engine, s strategy, specs []*core.Spec, workers int) []engine.Result {
	out := make([]engine.Result, len(specs))
	par.For(len(specs), workers, func(i int) {
		out[i] = evaluate(context.Background(), eng, s, specs[i])
	})
	return out
}

// TestBatchWorkersDifferential is the query half of the issue's
// differential suite: the same batch over the same shared partitioning
// must yield identical objective values (and identical failure verdicts)
// at 1, 4 and GOMAXPROCS goroutines — parallelism may only change the
// wall clock, never the answers.
func TestBatchWorkersDifferential(t *testing.T) {
	part, specs := galaxyProblem(t, 1500, 10)
	type outcome struct {
		obj  float64
		fail string
	}
	var want []outcome
	sr := sketchRefine(part, sketchrefine.Options{Solver: solverOpt()})
	for _, workers := range []int{1, 4, runtime.GOMAXPROCS(0)} {
		results := evaluateAll(&engine.Engine{}, sr, specs, workers)
		got := make([]outcome, len(results))
		for i, r := range results {
			if r.Err != nil {
				got[i] = outcome{fail: r.Err.Error()}
				continue
			}
			obj, err := r.Pkg.ObjectiveValue(specs[i])
			if err != nil {
				t.Fatal(err)
			}
			got[i] = outcome{obj: obj}
		}
		if want == nil {
			want = got
			continue
		}
		for i := range want {
			if want[i] != got[i] {
				t.Errorf("workers=%d query %d: %+v, want %+v", workers, i, got[i], want[i])
			}
		}
	}
}

// TestDirectBatchDifferential repeats the differential check for the
// DIRECT strategy, whose branch-and-bound search must likewise be
// untouched by engine-level concurrency.
func TestDirectBatchDifferential(t *testing.T) {
	_, specs := galaxyProblem(t, 600, 6)
	var want []float64
	for _, workers := range []int{1, runtime.GOMAXPROCS(0), 4} {
		results := evaluateAll(&engine.Engine{}, direct(solverOpt()), specs, workers)
		got := make([]float64, len(results))
		for i, r := range results {
			if r.Err != nil {
				t.Fatalf("workers=%d query %d: %v", workers, i, r.Err)
			}
			obj, err := r.Pkg.ObjectiveValue(specs[i])
			if err != nil {
				t.Fatal(err)
			}
			got[i] = obj
		}
		if want == nil {
			want = got
			continue
		}
		for i := range want {
			if want[i] != got[i] {
				t.Errorf("workers=%d query %d: objective %g, want %g", workers, i, got[i], want[i])
			}
		}
	}
}

// TestNaiveAgreesWithDirect exercises the third Solver strategy: on a
// small exact-cardinality query both NAIVE enumeration and DIRECT's ILP
// must reach the same optimal objective.
func TestNaiveAgreesWithDirect(t *testing.T) {
	rel := workload.Galaxy(60, 8)
	spec, err := translate.Compile(`
SELECT PACKAGE(G) AS P FROM galaxy G REPEAT 0
SUCH THAT COUNT(P.*) = 3 AND SUM(P.redshift) <= 2.5
MAXIMIZE SUM(P.petrorad)`, rel)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	dir := evaluate(ctx, &engine.Engine{}, direct(solverOpt()), spec)
	nai := evaluate(ctx, &engine.Engine{}, naiveStrategy(naive.Options{}), spec)
	if dir.Err != nil || nai.Err != nil {
		t.Fatalf("direct err %v, naive err %v", dir.Err, nai.Err)
	}
	od, _ := dir.Pkg.ObjectiveValue(spec)
	on, _ := nai.Pkg.ObjectiveValue(spec)
	if math.Abs(od-on) > 1e-6*(1+math.Abs(od)) {
		t.Errorf("naive objective %g, direct %g", on, od)
	}
}

// TestBatchCache: duplicate queries in one batch are solved once and
// served from the per-partitioning solution cache afterwards.
func TestBatchCache(t *testing.T) {
	part, specs := galaxyProblem(t, 800, 4)
	batch := append(append([]*core.Spec{}, specs...), specs...) // every query twice
	eng := &engine.Engine{}
	results := evaluateAll(eng, sketchRefine(part, sketchrefine.Options{Solver: solverOpt()}), batch, 4)
	if got, want := eng.Stats().Entries, len(specs); got != want {
		t.Errorf("cache holds %d entries, want %d", got, want)
	}
	fresh := 0
	for _, r := range results {
		if !r.Cached {
			fresh++
		}
	}
	if fresh != len(specs) {
		t.Errorf("%d fresh solves, want %d (duplicates must hit the cache)", fresh, len(specs))
	}
	for i, r := range results {
		j := (i + len(specs)) % len(batch)
		a, errA := r.Pkg.ObjectiveValue(batch[i])
		b, errB := results[j].Pkg.ObjectiveValue(batch[j])
		if errA != nil || errB != nil || a != b {
			t.Errorf("query %d and its duplicate disagree: %g vs %g (%v, %v)", i, a, b, errA, errB)
		}
	}
}

// TestResourceLimitNotCached: solver-budget failures depend on wall
// clock and machine load, so they must never be retained — a later
// evaluation of the same query with the same engine must retry (and
// here, with the budget unchanged, fail afresh rather than serve a
// cached verdict).
func TestResourceLimitNotCached(t *testing.T) {
	_, specs := galaxyProblem(t, 800, 1)
	eng, s := &engine.Engine{}, direct(ilp.Options{MaxNodes: 1})
	first := evaluate(context.Background(), eng, s, specs[0])
	if !errors.Is(first.Err, core.ErrResourceLimit) {
		t.Fatalf("error %v, want ErrResourceLimit", first.Err)
	}
	if eng.Stats().Entries != 0 {
		t.Errorf("resource-limit failure was cached (%d entries)", eng.Stats().Entries)
	}
	second := evaluate(context.Background(), eng, s, specs[0])
	if second.Cached {
		t.Error("retry of a non-definitive failure was served from cache")
	}
}

// TestCacheHitTime: a cache hit reports Cached=true and zero Time — the
// solve's cost was paid by the first caller, and summing Result.Time
// across a batch must not double-count it. It drives the harness shims
// (New, SketchRefine, Evaluate), as benchmarks/paqbench's ladder does.
func TestCacheHitTime(t *testing.T) {
	part, specs := galaxyProblem(t, 800, 1)
	eng := engine.New(engine.SketchRefine{
		Part: part,
		Opt:  sketchrefine.Options{Solver: solverOpt()},
	})
	first := eng.Evaluate(context.Background(), specs[0])
	if first.Err != nil {
		t.Fatal(first.Err)
	}
	if first.Cached {
		t.Error("first solve reported as cached")
	}
	hit := eng.Evaluate(context.Background(), specs[0])
	if hit.Err != nil {
		t.Fatal(hit.Err)
	}
	if !hit.Cached || hit.Time != 0 {
		t.Errorf("cache hit: Cached=%v Time=%v, want true and 0", hit.Cached, hit.Time)
	}
	a, _ := first.Pkg.ObjectiveValue(specs[0])
	b, _ := hit.Pkg.ObjectiveValue(specs[0])
	if a != b {
		t.Errorf("cache hit objective %g, want %g", b, a)
	}
}

// TestNaiveTimeoutKeepsIncumbent: when the naive enumeration hits its
// own Options.Timeout with a feasible package already found, the solve
// returns that package (AcceptIncumbent behavior) instead of dropping it,
// and the engine does not retain it.
func TestNaiveTimeoutKeepsIncumbent(t *testing.T) {
	rel := workload.Galaxy(3000, 4)
	spec, err := translate.Compile(`
SELECT PACKAGE(G) AS P FROM galaxy G REPEAT 0
SUCH THAT COUNT(P.*) = 4 AND SUM(P.redshift) <= 10
MAXIMIZE SUM(P.petrorad)`, rel)
	if err != nil {
		t.Fatal(err)
	}
	eng := &engine.Engine{}
	res := evaluate(context.Background(), eng, naiveStrategy(naive.Options{Timeout: 30 * time.Millisecond}), spec)
	if res.Err != nil {
		t.Fatalf("timed-out naive run with an incumbent returned error %v", res.Err)
	}
	ok, err := res.Pkg.IsFeasible(spec)
	if err != nil || !ok {
		t.Errorf("incumbent package infeasible (%v)", err)
	}
	if res.Stats == nil || !res.Stats.Truncated {
		t.Error("timed-out incumbent not marked Truncated")
	}
	if eng.Stats().Entries != 0 {
		t.Errorf("budget-truncated result was cached (%d entries)", eng.Stats().Entries)
	}
}

// TestSpecKeyAnonymousPredicates: specs that differ only in Desc-less
// FuncPreds — top-level or nested inside a CondCoef rendering — must get
// distinct cache keys, while the same spec always keys identically.
func TestSpecKeyAnonymousPredicates(t *testing.T) {
	rel := workload.Galaxy(50, 2)
	mkSpec := func(fn func(*relation.Relation) func(int) bool) *core.Spec {
		return &core.Spec{
			Rel:    rel,
			Repeat: 0,
			Constraints: []core.Constraint{{
				Coef: core.CondCoef{Pred: &relation.FuncPred{Fn: fn}, Inner: core.UnitCoef{}},
				Op:   lp.GE,
				RHS:  1,
			}},
		}
	}
	always := func(v bool) func(*relation.Relation) func(int) bool {
		return func(*relation.Relation) func(int) bool { return func(int) bool { return v } }
	}
	a := mkSpec(always(true))
	b := mkSpec(always(false))
	if engine.SpecKey(a) == engine.SpecKey(b) {
		t.Error("distinct anonymous CondCoef predicates share a cache key")
	}
	if engine.SpecKey(a) != engine.SpecKey(a) {
		t.Error("same spec keys differently across calls")
	}
	c := &core.Spec{Rel: rel, Repeat: 0, Base: &relation.FuncPred{Fn: always(true)}}
	d := &core.Spec{Rel: rel, Repeat: 0, Base: &relation.FuncPred{Fn: always(false)}}
	if engine.SpecKey(c) == engine.SpecKey(d) {
		t.Error("distinct anonymous base predicates share a cache key")
	}
}

// TestSeededConcurrentBatch: a shared seed must be safe for concurrent
// evaluations (each gets a private generator; this test fails under
// -race if any shared mutable state sneaks back into the shuffle path).
func TestSeededConcurrentBatch(t *testing.T) {
	part, specs := galaxyProblem(t, 800, 8)
	eng := &engine.Engine{NoCache: true} // force every query through a real solve
	sr := sketchRefine(part, sketchrefine.Options{Solver: solverOpt(), Seed: 9})
	for i, r := range evaluateAll(eng, sr, specs, 4) {
		if r.Err != nil {
			t.Fatalf("query %d: %v", i, r.Err)
		}
	}
}

// waitForGoroutines asserts the goroutine count settles back to the
// baseline (a canceled solve must leave nothing running).
func waitForGoroutines(t *testing.T, baseline int) {
	t.Helper()
	deadline := time.Now().Add(3 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= baseline {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Errorf("goroutines leaked: %d now vs %d before", runtime.NumGoroutine(), baseline)
}

// TestCancellationMidSolve cancels an evaluation while the ILP search is
// running: the engine must return promptly with the context's error, no
// goroutines may leak, and the aborted result must not be cached.
func TestCancellationMidSolve(t *testing.T) {
	part, specs := galaxyProblem(t, 2500, 1)
	before := runtime.NumGoroutine()
	eng := &engine.Engine{}
	sr := sketchRefine(part, sketchrefine.Options{Solver: ilp.Options{MaxNodes: 1 << 30}})
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan engine.Result, 1)
	go func() { done <- evaluate(ctx, eng, sr, specs[0]) }()
	time.Sleep(15 * time.Millisecond)
	cancel()
	select {
	case res := <-done:
		// The solve may legitimately have finished before the cancel
		// landed; only a non-context error is a failure.
		if res.Err != nil && !errors.Is(res.Err, context.Canceled) {
			t.Errorf("unexpected error: %v", res.Err)
		}
		if res.Err != nil && eng.Stats().Entries != 0 {
			t.Errorf("canceled result was cached (%d entries)", eng.Stats().Entries)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("cancellation did not stop the solve within 10s")
	}
	waitForGoroutines(t, before)
}

// TestPreCanceledContext: a context canceled before the call must fail
// fast with context.Canceled at every strategy, and leave nothing cached.
func TestPreCanceledContext(t *testing.T) {
	part, specs := galaxyProblem(t, 400, 1)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for name, s := range map[string]strategy{
		"direct":       direct(solverOpt()),
		"sketchrefine": sketchRefine(part, sketchrefine.Options{Solver: solverOpt()}),
	} {
		eng := &engine.Engine{}
		if r := evaluate(ctx, eng, s, specs[0]); !errors.Is(r.Err, context.Canceled) {
			t.Errorf("%s: error %v, want context.Canceled", name, r.Err)
		}
		if n := eng.Stats().Entries; n != 0 {
			t.Errorf("%s: canceled solve cached (%d entries)", name, n)
		}
	}
}

// TestDeadlineExceeded: an already-expired deadline surfaces as
// context.DeadlineExceeded through the whole stack.
func TestDeadlineExceeded(t *testing.T) {
	_, specs := galaxyProblem(t, 400, 1)
	ctx, cancel := context.WithTimeout(context.Background(), time.Nanosecond)
	defer cancel()
	time.Sleep(time.Millisecond)
	res := evaluate(ctx, &engine.Engine{}, direct(ilp.Options{MaxNodes: 1 << 30}), specs[0])
	if !errors.Is(res.Err, context.DeadlineExceeded) {
		t.Errorf("error %v, want context.DeadlineExceeded", res.Err)
	}
}

// TestConcurrentEnginesSharedPartitioning drives many concurrent batches
// against ONE engine and ONE partitioning — the -race configuration that
// guards the "shared partitioning is read-only" contract.
func TestConcurrentEnginesSharedPartitioning(t *testing.T) {
	part, specs := galaxyProblem(t, 1000, 6)
	eng := &engine.Engine{}
	sr := sketchRefine(part, sketchrefine.Options{Solver: solverOpt()})
	want := evaluateAll(eng, sr, specs, 4)
	done := make(chan []engine.Result, 3)
	for g := 0; g < 3; g++ {
		go func() {
			done <- evaluateAll(eng, sr, specs, 4)
		}()
	}
	for g := 0; g < 3; g++ {
		got := <-done
		for i := range want {
			if (want[i].Err == nil) != (got[i].Err == nil) {
				t.Errorf("concurrent batch query %d: error status diverged", i)
				continue
			}
			if want[i].Err != nil {
				continue
			}
			a, _ := want[i].Pkg.ObjectiveValue(specs[i])
			b, _ := got[i].Pkg.ObjectiveValue(specs[i])
			if a != b {
				t.Errorf("concurrent batch query %d: objective %g vs %g", i, b, a)
			}
		}
	}
}

// TestVersionedCacheInvalidation: mutating the relation makes cached
// entries unreachable (version-keyed SpecKey) and InvalidateRel reclaims
// exactly the stale ones, counting them.
func TestVersionedCacheInvalidation(t *testing.T) {
	rel := workload.Galaxy(300, 11)
	spec, err := translate.Compile(`
SELECT PACKAGE(G) AS P FROM galaxy G REPEAT 0
SUCH THAT COUNT(P.*) = 3 AND SUM(P.redshift) <= 4
MAXIMIZE SUM(P.petrorad)`, rel)
	if err != nil {
		t.Fatal(err)
	}
	eng, d := &engine.Engine{}, direct(solverOpt())
	ev := func() engine.Result { return evaluate(context.Background(), eng, d, spec) }

	r1 := ev()
	if r1.Err != nil {
		t.Fatal(r1.Err)
	}
	if hit := ev(); !hit.Cached {
		t.Fatal("identical query on unchanged data must hit the cache")
	}

	// Mutate the relation: the old entry's key can never match again…
	if err := rel.Delete(0); err != nil {
		t.Fatal(err)
	}
	r2 := ev()
	if r2.Err != nil {
		t.Fatal(r2.Err)
	}
	if r2.Cached {
		t.Fatal("query after a mutation must not be served from the stale entry")
	}
	if eng.Stats().Entries != 2 {
		t.Fatalf("cache holds %d entries, want 2 (stale + fresh)", eng.Stats().Entries)
	}

	// …and InvalidateRel reclaims exactly the stale one.
	if dropped := eng.InvalidateRel(rel); dropped != 1 {
		t.Fatalf("InvalidateRel dropped %d entries, want 1", dropped)
	}
	if eng.Stats().Entries != 1 {
		t.Fatalf("cache holds %d entries after invalidation, want 1", eng.Stats().Entries)
	}
	if got := eng.Stats().Invalidations; got != 1 {
		t.Fatalf("Invalidations = %d, want 1", got)
	}
	// The fresh entry still serves.
	if hit := ev(); !hit.Cached {
		t.Fatal("current-version entry must survive invalidation")
	}
}

// TestSpecKeyTracksConstantsAndVersion: one query template at two
// constants is two optimization problems, and a version bump makes the
// same problem a new one — the solution cache must key them apart.
func TestSpecKeyTracksConstantsAndVersion(t *testing.T) {
	rel := workload.Galaxy(200, 3)
	compile := func(q string) *core.Spec {
		spec, err := translate.Compile(q, rel)
		if err != nil {
			t.Fatal(err)
		}
		return spec
	}
	const tmpl = `
SELECT PACKAGE(G) AS P FROM galaxy G REPEAT 0
SUCH THAT COUNT(P.*) = 3 AND SUM(P.redshift) <= %.3f
MAXIMIZE SUM(P.petrorad)`
	a := compile(fmt.Sprintf(tmpl, 2.5))
	b := compile(fmt.Sprintf(tmpl, 9.75)) // same template, different RHS
	if engine.SpecKey(a) == engine.SpecKey(b) {
		t.Error("SpecKey lost its RHS sensitivity")
	}
	before := engine.SpecKey(a)
	if err := rel.Set(0, 1, relation.F(123)); err != nil {
		t.Fatal(err)
	}
	if engine.SpecKey(a) == before {
		t.Error("SpecKey ignored a version bump")
	}
}

// TestSpecKeyConstantRendering: the key's constants are written without
// fmt, and must stay byte-identical to the %g rendering every committed
// cache key (the golden plan's included) was produced with.
func TestSpecKeyConstantRendering(t *testing.T) {
	rel := workload.Galaxy(20, 2)
	for _, v := range []float64{0, -2.5, 0.1 + 0.2, 1e-7, 123456789, 1e21, 5e-324, math.Inf(1), math.Inf(-1)} {
		spec := &core.Spec{
			Rel:         rel,
			Constraints: []core.Constraint{{Coef: core.UnitCoef{}, Op: lp.LE, RHS: v}},
			Objective:   &core.Objective{Maximize: true, Coef: core.UnitCoef{}, Offset: v},
		}
		want := fmt.Sprintf("rel=%p@v%d;repeat=0;cons=%s %s %g;obj=max %s +%g",
			rel.Identity(), rel.Version(), core.UnitCoef{}, lp.LE, v, core.UnitCoef{}, v)
		if got := engine.SpecKey(spec); got != want {
			t.Errorf("SpecKey = %q, want %q", got, want)
		}
	}
}
