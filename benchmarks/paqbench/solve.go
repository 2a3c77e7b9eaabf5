package main

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"repro/paq"
)

// solvePhase is the timed phase of the two solve workloads: one client
// in a closed loop runs `passes` passes over the prepared statements,
// each pass in an order drawn from rng. With a recorder, every Execute
// runs with paq.WithTrace and its span tree is hung under the
// benchmark's paq.execute span.
func (e *env) solvePhase(ctx context.Context, sess *paq.Session, stmts []*paq.Stmt, passes int, rng *rand.Rand, rec *recorder) []solved {
	done := make([]solved, 0, passes*len(stmts))
	for p := 0; p < passes; p++ {
		if rec == nil {
			e.blockStart()
		}
		for _, i := range rng.Perm(len(stmts)) {
			if ctx.Err() != nil {
				return done
			}
			s := solved{q: i, pass: p, snap: sess.Rel()}
			if rec == nil {
				t0 := time.Now()
				s.res, s.err = stmts[i].Execute(ctx)
				s.latency = time.Since(t0)
			} else {
				op := rec.newOp()
				sp := rec.begin(nil, op, "paq.execute")
				s.res, s.err = stmts[i].Execute(ctx, paq.WithTrace())
				s.latency = sp.end()
				if s.err == nil {
					sp.attach(op, s.res.Trace())
				}
			}
			done = append(done, s)
		}
		if rec == nil {
			e.blockEnd()
		}
	}
	return done
}

// passBlocks cuts a phase into its passes.
func passBlocks(done []solved, passes int) []block {
	blocks := make([]block, passes)
	for _, s := range done {
		b := &blocks[s.pass]
		b.wall += s.latency
		if s.err == nil && !s.res.Truncated {
			b.ok = append(b.ok, s.latency)
		}
	}
	return blocks
}

// runSolve is the direct and the sketchrefine workload.
func (e *env) runSolve(ctx context.Context, method paq.Method) error {
	rows, passes := e.sz.DirectRows, e.sz.DirectPasses
	if method == paq.MethodSketchRefine {
		rows, passes = e.sz.TableRows, e.sz.SketchPasses
	}
	if err := e.makeInputs(rows); err != nil {
		return err
	}
	if err := e.references(ctx); err != nil {
		return err
	}

	// Set-up: the first call into the program until the first timed
	// Execute can start. DIRECT gets the rows as an in-memory table and
	// one worker; SketchRefine loads the CSV file and builds its
	// partitioning. Neither caches solutions: every Execute solves.
	open := func() (*paq.Session, []*paq.Stmt, error) {
		var sess *paq.Session
		var err error
		if method == paq.MethodDirect {
			sess, err = paq.Open(paq.Table(e.rel), append(solveOptions(method, 1), paq.WithoutCache())...)
		} else {
			sess, err = paq.Open(paq.CSV(e.csv), append(sketchOptions(), paq.WithoutCache())...)
		}
		if err != nil {
			return nil, nil, err
		}
		stmts, err := prepareAll(sess, e.queries)
		return sess, stmts, err
	}
	setups := e.sz.Setups
	if method == paq.MethodDirect {
		setups *= 40 // a third of a millisecond each
	}
	before, after := splitSetups(setups)
	var sess *paq.Session
	var stmts []*paq.Stmt
	var setupTimes []time.Duration
	setUp := func(n int) error {
		for k := 0; k < n; k++ {
			t0 := time.Now()
			s, st, err := open()
			if err != nil {
				return fmt.Errorf("set-up: %w", err)
			}
			setupTimes = append(setupTimes, time.Since(t0))
			sess, stmts = s, st // in-memory sessions hold nothing to close
		}
		return nil
	}
	if err := setUp(before); err != nil {
		return err
	}
	runtime.GC()

	rng := rand.New(rand.NewSource(e.cfg.seed))
	if e.rec != nil {
		passes = max(1, passes/3)
	}
	done := e.solvePhase(ctx, sess, stmts, passes, rng, nil)
	for _, s := range done {
		e.account(s)
	}
	e.checkSolves(e.queries, done)
	e.queryMetrics(true, passBlocks(done, passes))

	// Quality: how far each template's objective is from the LP bound
	// over the whole table, and — for DIRECT — that none is beyond it.
	obj := make(map[int]float64)
	for _, s := range done {
		if s.err == nil && !s.res.Truncated {
			obj[s.q] = s.res.Objective // checkSolves holds repeats equal
		}
	}
	var gaps []float64
	for q := range e.queries {
		o, ok := obj[q]
		if !ok {
			continue
		}
		gaps = append(gaps, relGap(o, e.zLP[q]))
		if method == paq.MethodDirect && beatsBound(e.queries[q], o, e.zLP[q]) {
			e.res.violate("%s: objective %v beats the LP bound %v", e.queries[q].name, o, e.zLP[q])
		}
	}
	e.res.setN("objective_gap", mean(gaps), "ratio", len(gaps))
	e.memMetric()
	e.sessionCounters(sess)

	if e.rec != nil {
		// The traced twin of the phase just run: same passes, same orders.
		traced := e.solvePhase(ctx, sess, stmts, passes, rand.New(rand.NewSource(e.cfg.seed)), e.rec)
		e.traceOverhead(blockRate(true, passBlocks(done, passes)), blockRate(true, passBlocks(traced, passes)))
		// Coverage: the share of each template's untraced Execute that the
		// ladder's staged calls account for.
		perQuery := make(map[int][]float64)
		for _, s := range done {
			if s.err == nil {
				perQuery[s.q] = append(perQuery[s.q], ms(s.latency))
			}
		}
		e.untracedExecMS = make([]float64, len(e.queries))
		for q, v := range perQuery {
			e.untracedExecMS[q] = median(v)
		}
	}
	if err := setUp(after); err != nil {
		return err
	}
	e.setupMetric(setupTimes)
	return nil
}
