package paq

import (
	"context"
	"errors"
	"fmt"
	"time"

	"repro/internal/advisor"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/obs"
	"repro/internal/par"
)

// TraceNode is the JSON wire form of one span of an execution trace —
// what Result.Trace returns, paqld serves for "trace":true requests,
// and the slow-query log embeds. SDK consumers use this alias instead
// of importing the internal observability package.
type TraceNode = obs.Node

// Incumbent is one improving feasible solution streamed while a solve
// is still running — the unit of anytime results. For a DIRECT solve it
// is a feasible (possibly suboptimal) package over the input relation;
// SketchRefine streams the incumbents of its subproblems (tagged with
// Subproblem; Sketch marks solves over the representative relation,
// whose Rows — when present — index R̃ rather than the input).
type Incumbent struct {
	// Objective is the incumbent's objective value (for DIRECT: the
	// package objective, including any constant offset).
	Objective float64 `json:"objective"`
	// Rows and Mult are the incumbent package (nil for hybrid-sketch
	// incumbents, which span two domains).
	Rows []int `json:"rows,omitempty"`
	Mult []int `json:"mult,omitempty"`
	// Nodes is the branch-and-bound node count when the incumbent was
	// found; Elapsed the wall-clock time since Execute began.
	Nodes   int           `json:"nodes"`
	Elapsed time.Duration `json:"elapsed"`
	// Seq numbers the incumbents of this execution from 1.
	Seq int `json:"seq"`
	// Subproblem and Sketch locate the incumbent within a SketchRefine
	// evaluation (always 0/false for DIRECT).
	Subproblem int  `json:"subproblem,omitempty"`
	Sketch     bool `json:"sketch,omitempty"`
}

// Result is the outcome of one execution.
type Result struct {
	// Rows and Mult are the answer package: distinct input-relation rows
	// with multiplicities.
	Rows []int
	Mult []int
	// Objective is the package's objective value (0 for
	// feasibility-only queries).
	Objective float64
	// Size is the package cardinality (Σ multiplicities); Distinct the
	// number of distinct tuples.
	Size, Distinct int
	// Version is the relation version the solve was pinned at: the
	// whole execution — row set, constraints, objective — reflects
	// exactly the dataset as of this version, no matter what mutations
	// ran concurrently.
	Version uint64
	// Stats records the evaluation work (cache hits carry the original
	// solve's stats).
	Stats *Stats
	// Truncated reports a budget-limited incumbent: feasible, but
	// possibly suboptimal — rerunning with a larger budget could
	// improve it.
	Truncated bool
	// Cached reports the result was served from the session's solution
	// cache; Time is the wall-clock evaluation time (0 for cache hits).
	Cached bool
	Time   time.Duration
	// Incumbents counts the improving incumbents streamed during the
	// solve (0 for cache hits).
	Incumbents int
	// Err is set only by ExecuteBatch (Execute returns errors
	// directly); it carries the same typed taxonomy.
	Err error

	pkg   *core.Package
	spec  *core.Spec
	trace *obs.Span
}

// Trace snapshots the execution's span tree: where the solve spent its
// time, from snapshot pinning down to individual ILP subproblems. Nil
// unless the execution ran WithTrace.
func (r *Result) Trace() *TraceNode { return r.trace.Node() }

// Package returns the answer as a core package value (for
// materialization into a relation via Package().Materialize).
func (r *Result) Package() *Package { return r.pkg }

// execCfg is the per-execution configuration.
type execCfg struct {
	fn      func(Incumbent)
	rows    []int
	seed    int64
	seedSet bool
	trace   bool
}

// ExecOption configures one Execute call.
type ExecOption struct{ apply func(*execCfg) }

// WithIncumbent streams improving incumbents to fn as they are found,
// turning the solve into an anytime computation. fn runs synchronously
// on the solving goroutine: keep it cheap. Cache hits return immediately
// and stream nothing.
func WithIncumbent(fn func(Incumbent)) ExecOption {
	return ExecOption{apply: func(c *execCfg) { c.fn = fn }}
}

// WithRows restricts the evaluation to a subset of the relation's rows
// — the paper's protocol for derived smaller datasets. The rows must be
// in range, live and distinct at the version the execution pins, as for
// DeleteRows. Row-subset executions bypass the solution cache. Not
// supported by MethodNaive.
func WithRows(rows []int) ExecOption {
	return ExecOption{apply: func(c *execCfg) { c.rows = rows }}
}

// WithExecSeed replaces the session's SketchRefine refinement-order
// seed for this execution only. Reseeded executions bypass the
// solution cache (their answer depends on the order). On a statement of
// any other method the seed cannot change the answer and is ignored.
func WithExecSeed(seed int64) ExecOption {
	return ExecOption{apply: func(c *execCfg) { c.seed = seed; c.seedSet = true }}
}

// WithTrace records a span tree for this execution — snapshot pin,
// partitioning view, sketch, per-group refines, ILP subproblems —
// retrievable from Result.Trace. Tracing costs a few allocations per
// span; executions without it pay nothing.
func WithTrace() ExecOption {
	return ExecOption{apply: func(c *execCfg) { c.trace = true }}
}

// Execute evaluates the prepared statement and returns the answer
// package. Failures map onto the typed taxonomy: errors.Is(err,
// ErrInfeasible) for "no such package", ErrTimeout for an expired ctx
// deadline, ErrBudget for exhausted solver budgets. Identical
// statements (same constraints, objective, and relation) are answered
// from the session's solution cache when possible.
func (st *Stmt) Execute(ctx context.Context, opts ...ExecOption) (*Result, error) {
	// The SDK boundary is the one place a nil ctx is tolerated; every
	// layer below takes the context as given.
	if ctx == nil {
		ctx = context.Background()
	}
	var ec execCfg
	for _, o := range opts {
		o.apply(&ec)
	}
	t0 := time.Now()
	var root *obs.Span
	if ec.trace {
		root = obs.NewSpan("execute")
		root.SetAttrStr("method", string(st.method))
		ctx = obs.ContextWith(ctx, root)
		// Planning happened once, at Prepare, outside this execution: the
		// root carries its cost and reason as attributes, not as a child.
		root.SetAttrFloat("plan_ms", float64(st.planDur)/float64(time.Millisecond))
		root.SetAttrStr("plan_reason", st.reason)
	}

	// Pin the execution: a brief read lock captures an immutable
	// relation snapshot (and, for SketchRefine, a partitioning view at
	// the same version), then the solve runs lock-free against the
	// frozen state — a concurrent ingest stream proceeds on head and
	// never stalls behind this solve. Incumbent callbacks run outside
	// any session lock, so they may issue mutations.
	pinSp := root.Child("pin")
	pin, err := st.sess.pinExec(st, pinSp)
	pinSp.Finish()
	if err != nil {
		return nil, err
	}
	// Rebind the compiled spec to the snapshot (shallow copy: predicates
	// and coefficients bind by attribute name at evaluation time). The
	// solution cache keys on the relation's identity and version, so
	// snapshot-bound solves share entries with head-bound ones.
	spec := st.spec
	if pin.snap != st.spec.Rel {
		sc := *st.spec
		sc.Rel = pin.snap
		spec = &sc
	}

	// The incumbent hook: incumbents are always counted (Result and the
	// session's anytime counter) and forwarded to the caller when asked.
	// Every solver calls it on this goroutine, and a caller that joins
	// another's in-flight solve never gets its own hook called.
	nInc := 0
	fn := ec.fn
	hook := func(inc core.Incumbent) {
		nInc++
		st.sess.incumbents.Add(1)
		if fn != nil {
			fn(Incumbent{
				Objective:  inc.Objective,
				Rows:       inc.Rows,
				Mult:       inc.Mult,
				Nodes:      inc.Nodes,
				Elapsed:    time.Since(t0),
				Seq:        nInc,
				Subproblem: inc.Subproblem,
				Sketch:     inc.Sketch,
			})
		}
	}

	// Bespoke executions (row subsets, reseeded refinement orders) bypass
	// the engine and are not representative workload evidence, so they
	// skip the advisor. Only SketchRefine has an order to reseed.
	bespoke := ec.rows != nil || (ec.seedSet && st.method == MethodSketchRefine)
	solveSp := root.Child("solve")
	sctx := obs.ContextWith(ctx, solveSp)
	var res engine.Result
	if bespoke {
		res = st.executeBespoke(sctx, ec, spec, pin, hook)
	} else {
		res = st.sess.engineFor(st.method).EvaluateCall(sctx, spec,
			engine.Call{Part: pin.view, KeyPrefix: pin.partKey, OnIncumbent: hook})
	}
	solveSp.SetAttrBool("cached", res.Cached)
	solveSp.Finish()
	// Evaluate the objective against the pinned snapshot, not head: a
	// mutation racing this solve must not make the reported objective
	// disagree with the version the package was chosen at.
	var obj float64
	err = res.Err
	if err == nil {
		objSp := root.Child("objective")
		obj, err = res.Pkg.ObjectiveValue(spec)
		objSp.Finish()
	}
	err = mapEvalErr(err)
	// Every real solve is evidence — a definitive "no such package" is a
	// correct answer, timeouts and exhausted budgets are failures — but a
	// cache hit's solve was paid before, and a canceled caller says
	// nothing about the method.
	if !bespoke && !res.Cached && !errors.Is(err, context.Canceled) {
		o := advisor.Outcome{
			Shape:   st.shape,
			Method:  string(st.method),
			SolveMS: float64(res.Time.Microseconds()) / 1000,
		}
		switch {
		case err == nil:
			o.Truncated = res.Stats != nil && res.Stats.Truncated
			if res.Stats != nil {
				o.Backtracks = res.Stats.Backtracks
			}
			if st.spec.Objective != nil {
				o.HasObjective, o.Objective, o.Maximize = true, obj, st.spec.Objective.Maximize
			}
		case errors.Is(err, ErrInfeasible):
			o.Infeasible = true
		default:
			o.Failed = true
		}
		st.sess.reportOutcome(o)
	}
	if err != nil {
		return nil, err
	}
	// Copy the package slices: the underlying *core.Package may live in
	// the session's solution cache and be shared by every future cache
	// hit — a caller mutating its Result must not corrupt it.
	out := &Result{
		Rows:       append([]int(nil), res.Pkg.Rows...),
		Mult:       append([]int(nil), res.Pkg.Mult...),
		Objective:  obj,
		Size:       res.Pkg.Size(),
		Distinct:   res.Pkg.Distinct(),
		Version:    spec.Rel.Version(),
		Stats:      res.Stats,
		Truncated:  res.Stats != nil && res.Stats.Truncated,
		Cached:     res.Cached,
		Time:       res.Time,
		Incumbents: nInc,
		pkg:        res.Pkg,
		spec:       spec,
	}
	if root != nil {
		root.SetAttrBool("cached", res.Cached)
		root.SetAttrInt("version", int64(out.Version))
		root.SetAttrInt("incumbents", int64(nInc))
		root.Finish()
		out.trace = root
	}
	return out, nil
}

// executeBespoke runs row-subset or reseeded executions outside the
// engine's cache (their answers are not cacheable under the statement's
// key). spec is the snapshot-bound spec and pin the pinned state, so
// bespoke solves are as lock-free as engine ones.
func (st *Stmt) executeBespoke(ctx context.Context, ec execCfg, spec *core.Spec, pin pinned, hook core.IncumbentFunc) engine.Result {
	// WithRows is caller input: held to DeleteRows' rule against the
	// pinned snapshot before Restrict or a column gather indexes by it.
	if err := checkRows(spec.Rel, ec.rows, "execute"); err != nil {
		return engine.Result{Err: err}
	}
	t0 := time.Now()
	var (
		pkg   *core.Package
		stats *core.EvalStats
		err   error
	)
	switch st.method {
	case MethodNaive:
		err = fmt.Errorf("%w: naive evaluation over row subsets", ErrUnsupported)
	case MethodSketchRefine:
		part := pin.view
		if ec.rows != nil {
			part = part.Restrict(ec.rows)
		}
		opt := st.sess.sketchOptions()
		if ec.seedSet {
			opt.Seed = ec.seed
		}
		pkg, stats, err = engine.SketchRefine{Part: part, Opt: opt}.Solve(ctx, spec, engine.Call{OnIncumbent: hook})
	default:
		// DIRECT over a row subset is the one solve engine.Direct (the
		// whole base relation) cannot express.
		pkg, stats, err = core.Solve(ctx, spec, spec.FilterRows(ec.rows), nil, st.sess.cfg.solverOptions(), hook)
	}
	return engine.Result{Pkg: pkg, Stats: stats, Err: err, Time: time.Since(t0)}
}

// ExecuteBatch evaluates many prepared statements concurrently on the
// session's worker pool (WithWorkers), sharing the strategy state and
// solution caches, and returns the results in input order. Every slot
// is filled: per-statement failures are reported in Result.Err, not
// returned.
func (s *Session) ExecuteBatch(ctx context.Context, stmts []*Stmt, opts ...ExecOption) []*Result {
	out := make([]*Result, len(stmts))
	par.For(len(stmts), s.cfg.workers, func(i int) {
		r, err := stmts[i].Execute(ctx, opts...)
		if err != nil {
			r = &Result{Err: err}
		}
		out[i] = r
	})
	return out
}
