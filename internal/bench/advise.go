package bench

import (
	"context"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"time"

	"repro/internal/workload"
	"repro/paq"
)

// AdviseConfig configures the adaptive-planner differential experiment
// (`benchrunner -exp advise`): an advisor-enabled session and a
// fixed-heuristic twin (paq.WithoutAdvisor) evaluate the same mixed
// Galaxy + TPC-H workload with MethodAuto; after a warm-up phase the
// adaptive session's total solve time must not exceed the fixed
// heuristic's by more than adviseSlack, with every query's objective within
// the quality bound. The adaptive sessions are durable: after the
// measured phase they are closed and reopened, and the restarted
// session must come back with its learned state — non-cold plans and
// zero partitioning builds on the workload's attribute sets.
type AdviseConfig struct {
	// Warmup is the number of workload rounds the advisor learns over
	// before measurement starts (0 means 8). It must cover the advisor's
	// cold-start (minSamples fallback runs) plus its probing of every
	// alternative (minSamples more) — 2·minSamples = 6 rounds — or probe
	// solves leak into the measured phase.
	Warmup int
	// Rounds is the number of measured workload rounds; 0 means 3.
	Rounds int
	// Dir is the durability root for the adaptive sessions (one
	// subdirectory per dataset); empty means a fresh temp dir (removed
	// afterwards).
	Dir string
}

const (
	// adviseQuality multiplies the sessions' QualityBound to form the
	// differential bound. The allowance is needed because the advisor may
	// legitimately answer with a different method than the fixed
	// heuristic: the two methods' objectives differ by the empirical
	// approximation gap, which the advisor's own GapTolerance (10%,
	// EWMA-smoothed) keeps small but nonzero. Only the adaptive session
	// being WORSE counts against the bound.
	adviseQuality = 1.15
	// adviseSlack is the multiplicative allowance on the adaptive
	// session's total measured solve time versus the fixed twin's. A
	// small absolute grace (2ms per measured solve) is always added:
	// sub-millisecond solves make a pure ratio flaky. Queries where only
	// the adaptive session met the quality bound (QualityWin) are
	// excluded from the comparison — there the advisor deliberately paid
	// solve time the fixed heuristic saved by answering outside
	// tolerance.
	adviseSlack = 1.10
)

// AdviseQueryResult is the per-query differential record.
type AdviseQueryResult struct {
	Dataset Dataset
	Query   string
	// Adaptive and Fixed accumulate the measured-phase solve time; the
	// objectives are from the final measured round.
	Adaptive, Fixed Measurement
	// Chosen is the method the advisor settled on in the final measured
	// round.
	Chosen paq.Method
	// Ratio is the worst adaptive-vs-fixed objective shortfall seen
	// across measured rounds (1 when adaptive never did worse); Bound
	// the quality bound it must stay within. FixedRatio is the mirror
	// image — the worst fixed-vs-adaptive shortfall.
	Ratio, FixedRatio, Bound float64
	// QualityWin marks queries where the fixed heuristic's answer fell
	// outside the bound while the adaptive session's did not: the
	// advisor's gap gate rejected the fast-but-inaccurate method and
	// deliberately paid more solve time for a within-tolerance answer.
	// Such queries are excluded from the total-time comparison — on
	// them the two configurations are not answering to the same
	// quality.
	QualityWin bool
}

// AdviseResult summarizes the experiment.
type AdviseResult struct {
	Warmup, Rounds int
	// AdaptiveTotal and FixedTotal are the summed measured-phase solve
	// times over every query; ComparableAdaptive/ComparableFixed
	// exclude the QualityWins (queries where only the adaptive session
	// met the quality bound — the pair the slack check runs on).
	// Speedup is ComparableFixed/ComparableAdaptive.
	AdaptiveTotal, FixedTotal           time.Duration
	ComparableAdaptive, ComparableFixed time.Duration
	Speedup                             float64
	QualityWins                         int
	Queries                             []AdviseQueryResult
	// Restart observability: per-dataset advisor state after close +
	// reopen. RestartOutcomes must be restored (> 0), RestartPartBuilds
	// must stay 0 (every built set warm-started, none rebuilt), and
	// ColdPlans must be 0 (the restored evidence keeps every decision
	// out of the cold-start fallback).
	RestartOutcomes   uint64
	RestartWarmSets   int
	RestartPartBuilds uint64
	ColdPlans         int
	Elapsed           time.Duration
}

// adviseSession bundles one dataset's adaptive/fixed session pair.
type adviseSession struct {
	ds       Dataset
	dir      string
	queries  []workload.Query
	adaptive *paq.Session
	fixed    *paq.Session
}

// Advise runs the adaptive-planner differential. Any violation — the
// adaptive session slower than the fixed heuristic beyond the slack, an
// objective outside the quality bound, feasibility divergence, or a
// restart that loses the learned state (cold plans, repartitioned hot
// sets) — is an error.
func (e *Env) Advise(ctx context.Context, cfg AdviseConfig) (*AdviseResult, error) {
	start := time.Now()
	if cfg.Warmup <= 0 {
		cfg.Warmup = 8
	}
	if cfg.Rounds <= 0 {
		cfg.Rounds = 3
	}
	dir := cfg.Dir
	if dir == "" {
		var err error
		dir, err = os.MkdirTemp("", "paq-advise-*")
		if err != nil {
			return nil, err
		}
		defer os.RemoveAll(dir)
	}

	res := &AdviseResult{Warmup: cfg.Warmup, Rounds: cfg.Rounds}

	// One adaptive (durable, advisor on) + one fixed (advisor off)
	// session per dataset, over the full generated relation, solution
	// cache off (sessionOpts) so every execution is both a real
	// measurement and real advisor evidence.
	var pairs []*adviseSession
	for _, ds := range []Dataset{Galaxy, TPCH} {
		p := &adviseSession{ds: ds, dir: filepath.Join(dir, string(ds)), queries: e.feasibleQueries(ds)}
		opts := func(extra ...paq.Option) []paq.Option {
			return e.sessionOpts(append([]paq.Option{paq.WithSeed(e.cfg.Seed)}, extra...)...)
		}
		var err error
		if p.adaptive, err = paq.Open(paq.Table(e.rels[ds]), opts(paq.WithDurability(p.dir))...); err != nil {
			return nil, fmt.Errorf("bench: advise: %s: %w", ds, err)
		}
		if p.fixed, err = paq.Open(paq.Table(e.rels[ds]), opts(paq.WithoutAdvisor())...); err != nil {
			return nil, fmt.Errorf("bench: advise: %s twin: %w", ds, err)
		}
		defer p.fixed.Close()
		pairs = append(pairs, p)
	}

	run := func(s *paq.Session, paql string) (*paq.Stmt, Measurement) {
		var stmt *paq.Stmt
		m := measure(func() (*paq.Result, error) {
			var err error
			stmt, err = s.Prepare(paql, paq.WithMethod(paq.MethodAuto))
			if err != nil {
				return nil, err
			}
			return stmt.Execute(ctx)
		})
		return stmt, m
	}

	// --- warm-up: the advisor observes and probes ------------------------
	// The fixed twin runs the same rounds so its lazily built
	// partitionings are also paid for outside the measured phase.
	for round := 0; round < cfg.Warmup; round++ {
		for _, p := range pairs {
			for _, q := range p.queries {
				if _, m := run(p.adaptive, q.PaQL); m.Err != nil {
					return nil, fmt.Errorf("bench: advise: warmup %s/%s: %w", p.ds, q.Name, m.Err)
				}
				if _, m := run(p.fixed, q.PaQL); m.Err != nil {
					return nil, fmt.Errorf("bench: advise: warmup %s/%s (fixed): %w", p.ds, q.Name, m.Err)
				}
			}
		}
	}

	// --- measured phase: fresh plans every round ------------------------
	var firstViolation error
	violation := func(format string, args ...any) {
		if firstViolation == nil {
			firstViolation = fmt.Errorf("bench: advise: "+format, args...)
		}
	}
	perQuery := map[Dataset]map[string]*AdviseQueryResult{}
	var order []*AdviseQueryResult
	for _, p := range pairs {
		perQuery[p.ds] = map[string]*AdviseQueryResult{}
		bound := p.adaptive.QualityBound(true)
		if b := p.fixed.QualityBound(true); b > bound {
			bound = b
		}
		for _, q := range p.queries {
			qr := &AdviseQueryResult{Dataset: p.ds, Query: q.Name, Ratio: 1, FixedRatio: 1, Bound: bound * adviseQuality}
			perQuery[p.ds][q.Name] = qr
			order = append(order, qr)
		}
	}
	for round := 0; round < cfg.Rounds; round++ {
		for _, p := range pairs {
			for _, q := range p.queries {
				qr := perQuery[p.ds][q.Name]
				stmt, ma := run(p.adaptive, q.PaQL)
				_, mf := run(p.fixed, q.PaQL)
				qr.Adaptive.Time += ma.Time
				qr.Fixed.Time += mf.Time
				qr.Adaptive.Err, qr.Fixed.Err = ma.Err, mf.Err
				res.AdaptiveTotal += ma.Time
				res.FixedTotal += mf.Time
				if stmt != nil {
					qr.Chosen = stmt.Plan().Method
				}
				if err := agreeOnFeasibility(string(p.ds)+"/"+q.Name, ma, mf); err != nil {
					violation("%w", err)
				} else if ma.Err == nil {
					qr.Adaptive.Objective, qr.Fixed.Objective = ma.Objective, mf.Objective
					// Directional: only the adaptive session being worse
					// than the fixed heuristic is a quality loss (being
					// better — e.g. DIRECT's optimum where the heuristic
					// ran SketchRefine — is the advisor working).
					short := ma.Objective - mf.Objective
					if q.Maximize {
						short = mf.Objective - ma.Objective
					}
					ratio := 1.0
					if den := math.Abs(mf.Objective); short > 0 && den > 1e-12 {
						ratio = 1 + short/den
					}
					if ratio > qr.Ratio {
						qr.Ratio = ratio
					}
					if math.IsNaN(ratio) || ratio > qr.Bound {
						violation("%s/%s: adaptive objective %g is worse than fixed %g beyond the quality bound %g (ratio %g)",
							p.ds, q.Name, ma.Objective, mf.Objective, qr.Bound, ratio)
					}
					fshort := mf.Objective - ma.Objective
					if q.Maximize {
						fshort = ma.Objective - mf.Objective
					}
					if den := math.Abs(ma.Objective); fshort > 0 && den > 1e-12 {
						if fr := 1 + fshort/den; fr > qr.FixedRatio {
							qr.FixedRatio = fr
						}
					}
				}
			}
		}
	}
	comparable := 0
	for _, qr := range order {
		if qr.FixedRatio > qr.Bound && qr.Ratio <= qr.Bound {
			qr.QualityWin = true
			res.QualityWins++
			continue
		}
		comparable++
		res.ComparableAdaptive += qr.Adaptive.Time
		res.ComparableFixed += qr.Fixed.Time
	}
	res.Queries = make([]AdviseQueryResult, 0, len(order))
	for _, qr := range order {
		res.Queries = append(res.Queries, *qr)
	}
	if res.ComparableAdaptive > 0 {
		res.Speedup = float64(res.ComparableFixed) / float64(res.ComparableAdaptive)
	}
	grace := 2 * time.Millisecond * time.Duration(comparable*cfg.Rounds)
	if float64(res.ComparableAdaptive) > float64(res.ComparableFixed)*adviseSlack+float64(grace) {
		violation("adaptive total %v exceeds fixed-heuristic total %v beyond slack %.2f (+%v grace; %d quality win(s) excluded)",
			res.ComparableAdaptive, res.ComparableFixed, adviseSlack, grace, res.QualityWins)
	}

	// --- restart: the learned state must survive a close + reopen -------
	// Close snapshots the dataset (with its warm partitionings) and the
	// advisor sidecar; the reopened session must plan non-cold and serve
	// every attribute set the workload built from warm-started
	// partitionings — zero builds.
	for _, p := range pairs {
		if err := p.adaptive.Close(); err != nil {
			return nil, fmt.Errorf("bench: advise: closing %s: %w", p.ds, err)
		}
		reopened, err := paq.Open(nil, e.sessionOpts(paq.WithSeed(e.cfg.Seed), paq.WithDurability(p.dir))...)
		if err != nil {
			return nil, fmt.Errorf("bench: advise: reopening %s: %w", p.ds, err)
		}
		stats := reopened.AdvisorStats()
		if stats.Outcomes == 0 {
			violation("%s: restart lost the advisor's observed outcomes", p.ds)
		}
		res.RestartOutcomes += stats.Outcomes
		warm := len(reopened.WarmSets())
		if warm == 0 {
			violation("%s: restart lost every warm attribute set", p.ds)
		}
		res.RestartWarmSets += warm
		for _, q := range p.queries {
			stmt, m := run(reopened, q.PaQL)
			if m.Err != nil {
				violation("%s/%s after restart: %v", p.ds, q.Name, m.Err)
				continue
			}
			if a := stmt.Plan().Adaptive; a == nil || a.Cold {
				res.ColdPlans++
				violation("%s/%s after restart: plan fell back to the cold-start heuristic", p.ds, q.Name)
			}
		}
		if pb := reopened.AdvisorStats().PartBuilds; pb != 0 {
			res.RestartPartBuilds += pb
			violation("%s: %d partitioning build(s) after restart, want 0 (built sets must warm-start)", p.ds, pb)
		}
		if err := reopened.Close(); err != nil {
			return nil, fmt.Errorf("bench: advise: closing reopened %s: %w", p.ds, err)
		}
	}

	res.Elapsed = time.Since(start)

	// --- report ---------------------------------------------------------
	fmt.Fprintf(e.cfg.Out, "Adaptive planner (Galaxy %d + TPC-H %d rows; %d warm-up + %d measured rounds)\n",
		e.cfg.GalaxyN, e.cfg.TPCHN, cfg.Warmup, cfg.Rounds)
	fmt.Fprintf(e.cfg.Out, "%-8s %-6s %12s %12s %8s %-12s %s\n", "dataset", "query", "adaptive", "fixed", "ratio", "chosen", "note")
	for _, qr := range res.Queries {
		note := ""
		if qr.QualityWin {
			// Excluded from the time comparison: only the adaptive answer
			// met the quality bound, so the two times buy different things.
			note = fmt.Sprintf("quality win (fixed %.4fx off)", qr.FixedRatio)
		}
		fmt.Fprintf(e.cfg.Out, "%-8s %-6s %12s %12s %8.4f %-12s %s\n",
			qr.Dataset, qr.Query, fmtMeasure(qr.Adaptive), fmtMeasure(qr.Fixed), qr.Ratio, qr.Chosen, note)
	}
	fmt.Fprintf(e.cfg.Out, "comparable totals: adaptive %v vs fixed %v (%.2fx; %d quality win(s) excluded; full totals %v vs %v)\n",
		res.ComparableAdaptive.Round(time.Millisecond), res.ComparableFixed.Round(time.Millisecond), res.Speedup,
		res.QualityWins, res.AdaptiveTotal.Round(time.Millisecond), res.FixedTotal.Round(time.Millisecond))
	fmt.Fprintf(e.cfg.Out, "restart restored %d outcomes, %d warm set(s), %d rebuild(s) in %v\n",
		res.RestartOutcomes, res.RestartWarmSets, res.RestartPartBuilds, res.Elapsed.Round(time.Millisecond))

	return res, firstViolation
}
