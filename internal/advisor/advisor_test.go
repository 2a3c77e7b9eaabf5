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
// until the fallback has minSamples, probe the alternative until it
// does, then exploit the faster method.
func TestDecideColdThenProbeThenExploit(t *testing.T) {
	a := New()
	cands := []string{"direct", "sketchrefine"}

	for i := 0; i < minSamples; i++ {
		dec := a.Decide("q", "direct", cands)
		if !dec.Cold || dec.Method != "direct" {
			t.Fatalf("decision %d: want cold fallback, got %+v", i, dec)
		}
		a.Observe(Outcome{Shape: "q", Method: "direct", SolveMS: 10,
			HasObjective: true, Objective: 10})
	}
	for i := 0; i < minSamples; i++ {
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
	if len(dec.Scores) != 2 || dec.Scores[0].N != minSamples || dec.Scores[1].N != minSamples {
		t.Fatalf("scores snapshot wrong: %+v", dec.Scores)
	}
}

// TestGapToleranceDisqualifies: a faster method whose observed
// objectives are beyond the gap tolerance never wins exploitation.
func TestGapToleranceDisqualifies(t *testing.T) {
	a := New()
	// direct: slow but optimal (objective 10, minimizing).
	feed(a, "q", "direct", 50, minSamples)
	// sketchrefine: 10x faster but 90% worse objectives.
	for i := 0; i < minSamples; i++ {
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
	a := New()
	feed(a, "q", "direct", 10, minSamples)
	for i := 0; i < minSamples; i++ {
		a.Observe(Outcome{Shape: "q", Method: "sketchrefine", SolveMS: 5, Failed: true})
	}
	dec := a.Decide("q", "direct", []string{"direct", "sketchrefine"})
	if dec.Method != "direct" {
		t.Fatalf("failing method won: %+v", dec)
	}
}

// TestStalenessProbe: after probeEvery exploits, the loser is
// re-observed once, then exploitation resumes.
func TestStalenessProbe(t *testing.T) {
	a := New()
	feed(a, "q", "direct", 1, minSamples)
	feed(a, "q", "sketchrefine", 50, minSamples)
	cands := []string{"direct", "sketchrefine"}
	probes := 0
	for i := 0; i < probeEvery+5; i++ {
		dec := a.Decide("q", "direct", cands)
		if dec.Probe {
			probes++
			if dec.Method != "sketchrefine" {
				t.Fatalf("staleness probe picked %q", dec.Method)
			}
			if i != probeEvery-1 {
				t.Fatalf("staleness probe at decision %d, want %d", i, probeEvery-1)
			}
			feed(a, "q", "sketchrefine", 50, 1)
		} else if dec.Method != "direct" {
			t.Fatalf("exploit picked %q", dec.Method)
		}
	}
	if probes != 1 {
		t.Fatalf("%d staleness probes in %d decisions, want 1", probes, probeEvery+5)
	}
}

// TestInfeasibleIsNotFailure: definitive infeasibility keeps the
// method's failure rate at zero.
func TestInfeasibleIsNotFailure(t *testing.T) {
	a := New()
	a.Observe(Outcome{Shape: "q", Method: "direct", SolveMS: 2, Infeasible: true})
	dec := a.Decide("q", "direct", []string{"direct"})
	if len(dec.Scores) != 1 || dec.Scores[0].FailRate != 0 {
		t.Fatalf("infeasible counted as failure: %+v", dec.Scores)
	}
}

// TestShapeCapEvictsLRU: the shape table stays bounded.
func TestShapeCapEvictsLRU(t *testing.T) {
	a := New()
	for i := 0; i < maxShapes+6; i++ {
		a.Observe(Outcome{Shape: fmt.Sprintf("s%d", i), Method: "direct", SolveMS: 1})
	}
	if got := a.Stats().Shapes; got != maxShapes {
		t.Fatalf("tracked %d shapes, cap is %d", got, maxShapes)
	}
	// The most recent shape must have survived, the oldest must not.
	if dec := a.Decide(fmt.Sprintf("s%d", maxShapes+5), "direct", []string{"direct"}); dec.Scores[0].N != 1 {
		t.Fatalf("most recent shape evicted: %+v", dec.Scores)
	}
	if dec := a.Decide("s0", "direct", []string{"direct"}); dec.Scores[0].N != 0 {
		t.Fatalf("oldest shape kept: %+v", dec.Scores)
	}
}

// oldState is a sidecar as written while the advisor also kept an
// attribute-set table ("sets"): the state TestStateRoundtrip builds, plus
// one mined set.
const oldState = `{"seq":5,"outcomes":3,"decisions":1,"cold":0,"probes":0,` +
	`"shapes":{"q":{"methods":{"direct":{"n":3,"ms":7,"fail":0,"backtracks":0,"gap_n":3,"last_seq":3}},` +
	`"best_obj":10,"has_best":true,"since_probe":1,"last_seq":5}},` +
	`"sets":{"price":{"attrs":["price"],"uses":1,"last_version":42,"last_seq":4}}}`

// TestStateRoundtrip: marshal → restore preserves evidence and counters,
// a sidecar written with the attribute-set table restores the same, and
// corrupt input errors without mutating state.
func TestStateRoundtrip(t *testing.T) {
	a := New()
	feed(a, "q", "direct", 7, minSamples)
	a.Decide("q", "direct", []string{"direct"})

	data, err := a.MarshalState()
	if err != nil {
		t.Fatal(err)
	}
	as := a.Stats()
	for name, in := range map[string][]byte{"current": data, "with sets": []byte(oldState)} {
		b := New()
		if err := b.RestoreState(in); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		bs := b.Stats()
		if as != bs {
			t.Fatalf("%s: stats diverge after restore: %+v vs %+v", name, as, bs)
		}
		dec := b.Decide("q", "direct", []string{"direct"})
		if dec.Cold || dec.Scores[0].N != minSamples || dec.Scores[0].MeanMS != 7 {
			t.Fatalf("%s: method evidence lost: %+v", name, dec)
		}

		if err := b.RestoreState([]byte("{not json")); err == nil {
			t.Fatalf("%s: corrupt state restored silently", name)
		}
		if b.Stats().Outcomes != bs.Outcomes {
			t.Fatalf("%s: failed restore mutated state", name)
		}
	}
}
