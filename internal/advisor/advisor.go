// Package advisor is the workload-driven self-tuning subsystem: it
// turns cheap observed execution signals into an adaptive
// evaluation-method choice per query shape.
//
// The design is deliberately statistics-free in the cost-model sense:
// there is no selectivity estimation and nothing to keep calibrated.
// Each (query shape, method) pair accumulates an exponentially weighted
// moving average of observed solve time, failure rate, and objective
// gap; decisions are a bandit-style loop over those observations —
// fall back to the planner's fixed heuristic while cold, probe
// under-sampled alternatives, then exploit the cheapest method whose
// observed objective quality stays within tolerance, with a periodic
// staleness probe so a regressed choice is eventually re-checked.
//
// The advisor is advisory by construction: it never builds anything on
// the solve path, never fails a query, and its persisted state is a
// sidecar the rest of recovery ignores if unreadable. Everything is
// deterministic — sequence counters, not clocks or RNGs — so identical
// workloads tune identically.
package advisor

import (
	"encoding/json"
	"fmt"
	"math"
	"sync"
)

// The advisor's tuning. One value each serves every session; they are
// not persisted, so a restart keeps the evidence but follows these.
const (
	// minSamples is how many outcomes a method needs before its score is
	// trusted: the fallback stays in charge until it has minSamples, and
	// alternatives are probed until they do too.
	minSamples = 3
	// probeEvery re-checks a non-chosen candidate after that many
	// consecutive exploit decisions on one shape, so a method that
	// regressed (or improved) after its last samples is eventually
	// re-observed.
	probeEvery = 32
	// alpha is the EWMA smoothing factor for all per-method signals
	// (higher = faster to adapt, noisier).
	alpha = 0.3
	// failPenalty multiplies a method's mean solve time by
	// (1 + failPenalty·failRate): a method that times out is scored as if
	// it were that much slower.
	failPenalty = 4
	// gapTolerance is the observed relative objective gap (vs the best
	// objective seen for the shape) beyond which a method is ineligible
	// for exploitation — speed never buys answers worse than this, unless
	// every candidate is beyond it.
	gapTolerance = 0.10
	// maxShapes bounds the tracked state; least-recently-seen shapes are
	// evicted past the cap.
	maxShapes = 256
)

// Outcome is one execution's observed record, reported by the session
// after every real (non-cached) solve.
type Outcome struct {
	// Shape identifies the query's structure (see engine.ShapeKey);
	// Method names the strategy that ran.
	Shape  string
	Method string
	// SolveMS is the wall-clock evaluation time in milliseconds;
	// Backtracks the SketchRefine refinement backtracks (0 for direct).
	SolveMS    float64
	Backtracks int
	// Failed marks timeouts, exhausted budgets, and operational errors —
	// the method did not produce an answer. Infeasible is NOT a failure:
	// a definitive "no such package" is a correct answer and its solve
	// time still informs the score.
	Failed     bool
	Infeasible bool
	// Truncated marks a budget-limited incumbent: feasible but possibly
	// suboptimal (scored as half a failure).
	Truncated bool
	// HasObjective, Objective, and Maximize feed the per-shape objective
	// gap (skipped for feasibility-only queries and failures).
	HasObjective bool
	Objective    float64
	Maximize     bool
}

// MethodScore is one candidate's observed evidence at decision time
// (rendered in the plan's Adaptive block).
type MethodScore struct {
	Method string `json:"method"`
	// N is how many outcomes the score rests on (0 = never observed).
	N uint64 `json:"n"`
	// MeanMS, FailRate, and Gap are the EWMA signals; Score is the
	// penalized time the decision compares (lower is better).
	MeanMS   float64 `json:"mean_ms"`
	FailRate float64 `json:"fail_rate,omitempty"`
	Gap      float64 `json:"gap,omitempty"`
	Score    float64 `json:"score"`
}

// Decision is the advisor's answer for one prepared statement.
type Decision struct {
	// Method is the chosen strategy; Fallback what the fixed heuristic
	// would have picked (and what cold decisions return).
	Method   string `json:"method"`
	Fallback string `json:"fallback"`
	// Cold marks a decision made on insufficient evidence (the fallback
	// wins); Probe marks a deliberate exploration of an under-sampled or
	// stale alternative.
	Cold  bool `json:"cold,omitempty"`
	Probe bool `json:"probe,omitempty"`
	// Reason explains the decision in one human-readable line.
	Reason string `json:"reason"`
	// Scores snapshots the evidence for every candidate, in the order
	// they were offered.
	Scores []MethodScore `json:"scores,omitempty"`
}

// Stats is a point-in-time snapshot of the advisor's counters.
type Stats struct {
	Outcomes  uint64 `json:"outcomes"`
	Shapes    int    `json:"shapes"`
	Decisions uint64 `json:"decisions"`
	Cold      uint64 `json:"cold_decisions"`
	Probes    uint64 `json:"probes"`
}

// methodStats is the EWMA evidence for one (shape, method) pair.
type methodStats struct {
	N          uint64  `json:"n"`
	MS         float64 `json:"ms"`
	Fail       float64 `json:"fail"`
	Backtracks float64 `json:"backtracks"`
	GapN       uint64  `json:"gap_n,omitempty"`
	Gap        float64 `json:"gap,omitempty"`
	LastSeq    uint64  `json:"last_seq"`
}

// shapeState is everything tracked for one query shape.
type shapeState struct {
	Methods    map[string]*methodStats `json:"methods"`
	BestObj    float64                 `json:"best_obj,omitempty"`
	HasBest    bool                    `json:"has_best,omitempty"`
	Maximize   bool                    `json:"maximize,omitempty"`
	SinceProbe uint64                  `json:"since_probe,omitempty"`
	LastSeq    uint64                  `json:"last_seq"`
}

// Advisor is one session's adaptive state. Safe for concurrent use.
type Advisor struct {
	mu        sync.Mutex
	seq       uint64 // logical clock: every Observe/Decide tick
	outcomes  uint64
	decisions uint64
	cold      uint64
	probes    uint64
	shapes    map[string]*shapeState
}

// New returns an advisor with no evidence.
func New() *Advisor {
	return &Advisor{shapes: make(map[string]*shapeState)}
}

func (a *Advisor) shapeLocked(key string) *shapeState {
	ss := a.shapes[key]
	if ss == nil {
		ss = &shapeState{Methods: make(map[string]*methodStats)}
		a.shapes[key] = ss
	}
	return ss
}

// Observe records one execution outcome.
func (a *Advisor) Observe(o Outcome) {
	if o.Shape == "" || o.Method == "" {
		return
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	a.seq++
	a.outcomes++
	ss := a.shapeLocked(o.Shape)
	ss.LastSeq = a.seq
	ms := ss.Methods[o.Method]
	if ms == nil {
		ms = &methodStats{}
		ss.Methods[o.Method] = ms
	}
	ms.N++
	ms.LastSeq = a.seq
	ewma := func(cur, x float64, first bool) float64 {
		if first {
			return x
		}
		return alpha*x + (1-alpha)*cur
	}
	first := ms.N == 1
	ms.MS = ewma(ms.MS, o.SolveMS, first)
	ms.Backtracks = ewma(ms.Backtracks, float64(o.Backtracks), first)
	fail := 0.0
	switch {
	case o.Failed:
		fail = 1
	case o.Truncated:
		fail = 0.5
	}
	ms.Fail = ewma(ms.Fail, fail, first)
	if o.HasObjective && !o.Failed && !o.Infeasible &&
		!math.IsNaN(o.Objective) && !math.IsInf(o.Objective, 0) {
		if !ss.HasBest || betterObj(o.Maximize, o.Objective, ss.BestObj) {
			ss.BestObj, ss.HasBest, ss.Maximize = o.Objective, true, o.Maximize
		}
		g := gapOf(ss.Maximize, o.Objective, ss.BestObj)
		ms.Gap = ewma(ms.Gap, g, ms.GapN == 0)
		ms.GapN++
	}
	a.trimLocked()
}

func betterObj(maximize bool, x, best float64) bool {
	if maximize {
		return x > best
	}
	return x < best
}

// gapOf is the relative shortfall of obj against the best objective
// observed for the shape (0 when obj is at least as good; absolute when
// best is ~0).
func gapOf(maximize bool, obj, best float64) float64 {
	diff := obj - best
	if maximize {
		diff = best - obj
	}
	if diff <= 0 || math.IsNaN(diff) {
		return 0
	}
	if den := math.Abs(best); den > 1e-12 {
		return diff / den
	}
	return diff
}

// score is the penalized time the decision loop minimizes.
func score(ms *methodStats) float64 {
	return ms.MS * (1 + failPenalty*ms.Fail)
}

// Decide picks the method for one prepared statement. fallback is what
// the fixed planner heuristic chose (always among candidates); the
// candidate order breaks ties and orders probes, so callers must keep
// it deterministic.
func (a *Advisor) Decide(shape, fallback string, candidates []string) Decision {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.seq++
	a.decisions++
	ss := a.shapeLocked(shape)
	ss.LastSeq = a.seq
	dec := Decision{Method: fallback, Fallback: fallback}
	for _, m := range candidates {
		sc := MethodScore{Method: m}
		if ms := ss.Methods[m]; ms != nil {
			sc.N, sc.MeanMS, sc.FailRate, sc.Gap = ms.N, ms.MS, ms.Fail, ms.Gap
			sc.Score = score(ms)
		}
		dec.Scores = append(dec.Scores, sc)
	}
	fb := ss.Methods[fallback]
	if fb == nil || fb.N < minSamples {
		var n uint64
		if fb != nil {
			n = fb.N
		}
		a.cold++
		dec.Cold = true
		dec.Reason = fmt.Sprintf("cold: %d/%d runs observed for %s; using the planner heuristic", n, minSamples, fallback)
		return dec
	}
	// Probe under-sampled alternatives before trusting any comparison.
	for _, m := range candidates {
		if m == fallback {
			continue
		}
		ms := ss.Methods[m]
		if ms == nil || ms.N < minSamples {
			var n uint64
			if ms != nil {
				n = ms.N
			}
			a.probes++
			ss.SinceProbe = 0
			dec.Method = m
			dec.Probe = true
			dec.Reason = fmt.Sprintf("probe: %s has %d/%d runs observed", m, n, minSamples)
			return dec
		}
	}
	// Every candidate is sampled: exploit the lowest penalized time among
	// methods whose observed objective gap stays within tolerance (all of
	// them, if none qualifies). The fallback is considered first, so ties
	// keep the heuristic's choice.
	ordered := make([]string, 0, len(candidates))
	ordered = append(ordered, fallback)
	for _, m := range candidates {
		if m != fallback {
			ordered = append(ordered, m)
		}
	}
	pick, eligible := "", false
	var pickScore float64
	for pass := 0; pass < 2 && pick == ""; pass++ {
		for _, m := range ordered {
			ms := ss.Methods[m]
			if pass == 0 && ms.Gap > gapTolerance {
				continue
			}
			if sc := score(ms); pick == "" || sc < pickScore {
				pick, pickScore = m, sc
				eligible = pass == 0
			}
		}
	}
	dec.Method = pick
	best := ss.Methods[pick]
	if pick == fallback {
		dec.Reason = fmt.Sprintf("observed: fallback %s ≈%.1fms (n=%d) remains best of %d candidates", pick, best.MS, best.N, len(candidates))
	} else {
		dec.Reason = fmt.Sprintf("observed: %s ≈%.1fms (n=%d) beats fallback %s ≈%.1fms (n=%d)",
			pick, best.MS, best.N, fallback, fb.MS, fb.N)
	}
	if !eligible {
		dec.Reason += fmt.Sprintf(" (all candidates exceed the %.0f%% objective-gap tolerance)", gapTolerance*100)
	}
	// Staleness refresh: after probeEvery consecutive exploits on this
	// shape, re-observe the least recently seen alternative.
	ss.SinceProbe++
	if len(ordered) > 1 && ss.SinceProbe >= probeEvery {
		stale, staleSeq := "", uint64(math.MaxUint64)
		for _, m := range ordered {
			if m == pick {
				continue
			}
			if ms := ss.Methods[m]; ms.LastSeq < staleSeq {
				stale, staleSeq = m, ms.LastSeq
			}
		}
		if stale != "" {
			a.probes++
			ss.SinceProbe = 0
			dec.Method = stale
			dec.Probe = true
			dec.Reason = fmt.Sprintf("probe: refreshing %s (stale for %d decisions)", stale, probeEvery)
		}
	}
	return dec
}

// trimLocked evicts least-recently-seen shapes past the cap.
func (a *Advisor) trimLocked() {
	for len(a.shapes) > maxShapes {
		victim, victimSeq := "", uint64(math.MaxUint64)
		for k, ss := range a.shapes {
			if ss.LastSeq < victimSeq {
				victim, victimSeq = k, ss.LastSeq
			}
		}
		delete(a.shapes, victim)
	}
}

// Stats snapshots the advisor's counters.
func (a *Advisor) Stats() Stats {
	a.mu.Lock()
	defer a.mu.Unlock()
	return Stats{
		Outcomes:  a.outcomes,
		Shapes:    len(a.shapes),
		Decisions: a.decisions,
		Cold:      a.cold,
		Probes:    a.probes,
	}
}

// persistedState is the advisor's durable form (JSON inside the store's
// framed sidecar file). The tuning constants are NOT persisted: a
// restart keeps the evidence but follows the current process's tuning.
// A state written with the attribute-set table ("sets") still loads:
// decoding ignores the field.
type persistedState struct {
	Seq       uint64                 `json:"seq"`
	Outcomes  uint64                 `json:"outcomes"`
	Decisions uint64                 `json:"decisions"`
	Cold      uint64                 `json:"cold"`
	Probes    uint64                 `json:"probes"`
	Shapes    map[string]*shapeState `json:"shapes"`
}

// MarshalState serializes the advisor's evidence for persistence.
func (a *Advisor) MarshalState() ([]byte, error) {
	a.mu.Lock()
	defer a.mu.Unlock()
	return json.Marshal(persistedState{
		Seq:       a.seq,
		Outcomes:  a.outcomes,
		Decisions: a.decisions,
		Cold:      a.cold,
		Probes:    a.probes,
		Shapes:    a.shapes,
	})
}

// RestoreState replaces the advisor's evidence with a previously
// marshaled state. The state is advisory: callers should treat an error
// as "start cold", never as a recovery failure.
func (a *Advisor) RestoreState(data []byte) error {
	var ps persistedState
	if err := json.Unmarshal(data, &ps); err != nil {
		return fmt.Errorf("advisor: undecodable state: %w", err)
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	a.seq = ps.Seq
	a.outcomes = ps.Outcomes
	a.decisions = ps.Decisions
	a.cold = ps.Cold
	a.probes = ps.Probes
	a.shapes = make(map[string]*shapeState)
	for k, ss := range ps.Shapes {
		if ss == nil {
			continue
		}
		if ss.Methods == nil {
			ss.Methods = make(map[string]*methodStats)
		}
		for m, mst := range ss.Methods {
			if mst == nil {
				delete(ss.Methods, m)
			}
		}
		a.shapes[k] = ss
	}
	a.trimLocked()
	return nil
}
