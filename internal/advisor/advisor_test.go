package advisor

import (
	"fmt"
	"testing"
)

func feed(a *Advisor, shape, method string, ms float64, n int) {
	for i := 0; i < n; i++ {
		a.Observe(Outcome{Shape: shape, Method: method, SolveMS: ms,
			HasObjective: true, Objective: 10, Maximize: false})
	}
}

// TestDecideColdThenProbeThenExploit walks the full bandit loop: cold
// until the fallback has MinSamples, probe the alternative until it
// does, then exploit the faster method.
func TestDecideColdThenProbeThenExploit(t *testing.T) {
	a := New(Config{MinSamples: 3})
	cands := []string{"direct", "sketchrefine"}

	for i := 0; i < 3; i++ {
		dec := a.Decide("q", "direct", cands)
		if !dec.Cold || dec.Method != "direct" {
			t.Fatalf("decision %d: want cold fallback, got %+v", i, dec)
		}
		a.Observe(Outcome{Shape: "q", Method: "direct", SolveMS: 10,
			HasObjective: true, Objective: 10})
	}
	for i := 0; i < 3; i++ {
		dec := a.Decide("q", "direct", cands)
		if !dec.Probe || dec.Method != "sketchrefine" {
			t.Fatalf("decision %d: want probe of sketchrefine, got %+v", i, dec)
		}
		a.Observe(Outcome{Shape: "q", Method: "sketchrefine", SolveMS: 1,
			HasObjective: true, Objective: 10})
	}
	dec := a.Decide("q", "direct", cands)
	if dec.Cold || dec.Probe || dec.Method != "sketchrefine" {
		t.Fatalf("want exploit of the faster sketchrefine, got %+v", dec)
	}
	if dec.Fallback != "direct" {
		t.Fatalf("fallback not carried: %+v", dec)
	}
	if len(dec.Scores) != 2 || dec.Scores[0].N != 3 || dec.Scores[1].N != 3 {
		t.Fatalf("scores snapshot wrong: %+v", dec.Scores)
	}
}

// TestGapToleranceDisqualifies: a faster method whose observed
// objectives are beyond the gap tolerance never wins exploitation.
func TestGapToleranceDisqualifies(t *testing.T) {
	a := New(Config{MinSamples: 2, GapTolerance: 0.10})
	// direct: slow but optimal (objective 10, minimizing).
	feed(a, "q", "direct", 50, 2)
	// sketchrefine: 10x faster but 90% worse objectives.
	for i := 0; i < 2; i++ {
		a.Observe(Outcome{Shape: "q", Method: "sketchrefine", SolveMS: 5,
			HasObjective: true, Objective: 19, Maximize: false})
	}
	dec := a.Decide("q", "direct", []string{"direct", "sketchrefine"})
	if dec.Method != "direct" {
		t.Fatalf("gap-gated method won anyway: %+v", dec)
	}
}

// TestFailurePenalty: timeouts make a nominally fast method lose.
func TestFailurePenalty(t *testing.T) {
	a := New(Config{MinSamples: 2, FailPenalty: 10})
	feed(a, "q", "direct", 10, 2)
	for i := 0; i < 2; i++ {
		a.Observe(Outcome{Shape: "q", Method: "sketchrefine", SolveMS: 5, Failed: true})
	}
	dec := a.Decide("q", "direct", []string{"direct", "sketchrefine"})
	if dec.Method != "direct" {
		t.Fatalf("failing method won: %+v", dec)
	}
}

// TestStalenessProbe: after ProbeEvery exploits, the loser is
// re-observed once, then exploitation resumes.
func TestStalenessProbe(t *testing.T) {
	a := New(Config{MinSamples: 1, ProbeEvery: 3})
	feed(a, "q", "direct", 1, 1)
	feed(a, "q", "sketchrefine", 50, 1)
	cands := []string{"direct", "sketchrefine"}
	probes := 0
	for i := 0; i < 8; i++ {
		dec := a.Decide("q", "direct", cands)
		if dec.Probe {
			probes++
			if dec.Method != "sketchrefine" {
				t.Fatalf("staleness probe picked %q", dec.Method)
			}
			feed(a, "q", "sketchrefine", 50, 1)
		} else if dec.Method != "direct" {
			t.Fatalf("exploit picked %q", dec.Method)
		}
	}
	if probes == 0 {
		t.Fatal("no staleness probe in 8 decisions with ProbeEvery=3")
	}
}

// TestInfeasibleIsNotFailure: definitive infeasibility keeps the
// method's failure rate at zero.
func TestInfeasibleIsNotFailure(t *testing.T) {
	a := New(Config{})
	a.Observe(Outcome{Shape: "q", Method: "direct", SolveMS: 2, Infeasible: true})
	dec := a.Decide("q", "direct", []string{"direct"})
	if len(dec.Scores) != 1 || dec.Scores[0].FailRate != 0 {
		t.Fatalf("infeasible counted as failure: %+v", dec.Scores)
	}
}

// TestHotSetsAndEvictionOrder exercises the miner: recurrence makes a
// set hot, and eviction order is least-recently-used first.
func TestHotSetsAndEvictionOrder(t *testing.T) {
	a := New(Config{HotUses: 3})
	for i := 0; i < 3; i++ {
		a.ObserveSet("price,weight", []string{"price", "weight"}, uint64(10+i))
	}
	a.ObserveSet("mass", []string{"mass"}, 20)
	hot := a.HotSets()
	if len(hot) != 1 || hot[0].Key != "price,weight" || hot[0].Uses != 3 || hot[0].LastVersion != 12 {
		t.Fatalf("hot sets: %+v", hot)
	}
	order := a.EvictionOrder([]string{"mass", "price,weight", "never-seen"})
	want := []string{"never-seen", "price,weight", "mass"}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("eviction order %v, want %v", order, want)
		}
	}
}

// TestShapeCapEvictsLRU: the shape table stays bounded.
func TestShapeCapEvictsLRU(t *testing.T) {
	a := New(Config{MaxShapes: 4})
	for i := 0; i < 10; i++ {
		a.Observe(Outcome{Shape: fmt.Sprintf("s%d", i), Method: "direct", SolveMS: 1})
	}
	if got := a.Stats().Shapes; got != 4 {
		t.Fatalf("tracked %d shapes, cap is 4", got)
	}
	// The most recent shape must have survived.
	dec := a.Decide("s9", "direct", []string{"direct"})
	if dec.Scores[0].N != 1 {
		t.Fatalf("most recent shape evicted: %+v", dec.Scores)
	}
}

// TestStateRoundtrip: marshal → restore preserves evidence, prewarmed
// marks, and counters; corrupt input errors without mutating state.
func TestStateRoundtrip(t *testing.T) {
	a := New(Config{MinSamples: 2})
	feed(a, "q", "direct", 7, 3)
	a.ObserveSet("price", []string{"price"}, 42)
	a.MarkPrewarmed("price")
	a.Decide("q", "direct", []string{"direct"})

	data, err := a.MarshalState()
	if err != nil {
		t.Fatal(err)
	}
	b := New(Config{MinSamples: 2})
	if err := b.RestoreState(data); err != nil {
		t.Fatal(err)
	}
	as, bs := a.Stats(), b.Stats()
	if as != bs {
		t.Fatalf("stats diverge after restore: %+v vs %+v", as, bs)
	}
	if !b.IsPrewarmed("price") {
		t.Fatal("prewarmed mark lost")
	}
	si, ok := b.SetInfo("price")
	if !ok || si.Uses != 1 || si.LastVersion != 42 {
		t.Fatalf("set info lost: %+v ok=%v", si, ok)
	}
	dec := b.Decide("q", "direct", []string{"direct"})
	if dec.Cold || dec.Scores[0].N != 3 {
		t.Fatalf("method evidence lost: %+v", dec)
	}

	if err := b.RestoreState([]byte("{not json")); err == nil {
		t.Fatal("corrupt state restored silently")
	}
	if b.Stats().Outcomes != bs.Outcomes {
		t.Fatal("failed restore mutated state")
	}
}

// TestPrewarmedLifecycle: mark → clear → eviction candidates again.
func TestPrewarmedLifecycle(t *testing.T) {
	a := New(Config{})
	a.ObserveSet("a", []string{"a"}, 1)
	a.MarkPrewarmed("a")
	if !a.IsPrewarmed("a") {
		t.Fatal("mark did not stick")
	}
	a.ClearPrewarmed("a")
	if a.IsPrewarmed("a") {
		t.Fatal("clear did not stick")
	}
}
