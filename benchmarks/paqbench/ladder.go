package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/ilp"
	"repro/internal/lp"
	"repro/internal/paql"
	"repro/internal/partition"
	"repro/internal/relation"
	"repro/internal/sketchrefine"
	"repro/internal/store"
	"repro/internal/translate"
	"repro/paq"
)

// The ladder is the per-layer half of a traced run: it times calls into
// each layer's public functions from outside, one recorder span per
// call, on the inputs the workload just ran on — the same table, the
// same seven templates, the same kind of batches. Every per-layer
// metric is a median over the operations (queries or batches) the
// ladder ran.

// layerTimes collects the span durations of one staged call per
// operation, so a metric can be the median over operations.
type layerTimes map[string][]float64

func (lt layerTimes) add(name string, d time.Duration) { lt[name] = append(lt[name], us(d)) }

// timed runs fn under a recorder span and returns its duration.
func (e *env) timed(parent *open, op int, name string, fn func() error) (time.Duration, error) {
	sp := e.rec.begin(parent, op, name)
	err := fn()
	return sp.end(), err
}

// repeat runs fn n times under spans of one name and returns the median
// duration: sub-millisecond calls are too noisy to time once.
func (e *env) repeat(parent *open, op int, name string, n int, fn func() error) (time.Duration, error) {
	ds := make([]float64, n)
	for i := range ds {
		d, err := e.timed(parent, op, name, fn)
		if err != nil {
			return 0, err
		}
		ds[i] = float64(d)
	}
	return time.Duration(median(ds)), nil
}

// allocKB runs fn and returns the kilobytes it allocated.
func allocKB(fn func() error) (float64, error) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	err := fn()
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc-before.TotalAlloc) / 1024, err
}

func solverBudget() ilp.Options {
	return ilp.Options{TimeLimit: timeLimit, MaxNodes: nodeLimit, Gap: gap}
}

func refineOptions() sketchrefine.Options {
	return sketchrefine.Options{Solver: solverBudget(), HybridSketch: true, Seed: refineSeed}
}

// ladder runs every layer probe and sets every per-layer metric that
// does not come from the workload's own phases.
func (e *env) ladder(ctx context.Context) error {
	lt := make(layerTimes)
	res := e.res

	// relation: load the workload's CSV file. The last copy becomes the
	// ladder's private table, which the batch probes below mutate.
	var priv *relation.Relation
	for i := 0; i < 3; i++ {
		d, err := e.timed(nil, e.rec.newOp(), "relation.load_csv", func() (err error) {
			priv, err = relation.LoadCSV(e.csv)
			return err
		})
		if err != nil {
			return fmt.Errorf("relation.LoadCSV: %w", err)
		}
		lt.add("relation.load_csv", d)
	}
	res.set("relation.load_csv_ms", median(lt["relation.load_csv"])/1000, "ms")

	// partition: build at the workload's n, τ and attributes.
	var part *partition.Partitioning
	tau := int(float64(priv.Live())*tauFrac) + 1
	for i := 0; i < 3; i++ {
		d, err := e.timed(nil, e.rec.newOp(), "partition.build", func() (err error) {
			part, err = partition.Build(priv, partition.Options{Attrs: galaxyAttrs, SizeThreshold: tau, Workers: workers()})
			return err
		})
		if err != nil {
			return fmt.Errorf("partition.Build: %w", err)
		}
		lt.add("partition.build", d)
	}
	res.set("partition.build_ms", median(lt["partition.build"])/1000, "ms")
	res.set("partition.groups", float64(part.NumGroups()), "count")

	// paq: open a SketchRefine session over the in-memory table, cache on.
	var sess *paq.Session
	d, err := e.timed(nil, e.rec.newOp(), "paq.open", func() (err error) {
		sess, err = paq.Open(paq.Table(e.rel), sketchOptions()...)
		return err
	})
	if err != nil {
		return fmt.Errorf("paq.Open: %w", err)
	}
	res.set("paq.open_ms", ms(d), "ms")

	if err := e.ladderQueries(ctx, lt, priv, part, sess); err != nil {
		return err
	}
	if err := e.ladderBatches(lt, priv, part); err != nil {
		return err
	}
	if err := e.ladderServer(ctx, lt, sess); err != nil {
		return err
	}
	if e.cfg.workload != "ingest" { // ingest reports its own write path
		if err := e.ladderDurable(ctx); err != nil {
			return err
		}
	}
	e.coverage(lt)
	return nil
}

// kernelTable is the table the LP/ILP stages run on: the workload's own
// when it is DIRECT-sized, else its first KernelRows rows (which, the
// generator being sequential, are exactly the direct workload's table)
// with the templates re-scaled to that prefix.
func (e *env) kernelTable() (*relation.Relation, []query, error) {
	if e.rel.Len() <= e.sz.KernelRows {
		return e.rel, e.queries, nil
	}
	rows := make([]int, e.sz.KernelRows)
	for i := range rows {
		rows[i] = i
	}
	k := e.rel.Subset("galaxy", rows)
	m, err := tableMeans(k)
	if err != nil {
		return nil, nil, err
	}
	return k, galaxyQueries(m), nil
}

// ladderQueries replays every template as the staged ladder
//
//	paql.Parse → translate.Translate → Spec.BaseRows →
//	  core.BuildILP → lp.SolveCtx (root) → ilp.SolveCtx          (DIRECT)
//	  Partitioning.View → sketchrefine.EvaluateCtx               (SketchRefine)
//
// then the engine's key and cache-hit path, then Session.Prepare and one
// Stmt.Execute with paq.WithTrace, whose span tree is hung under the
// benchmark's paq.execute span.
func (e *env) ladderQueries(ctx context.Context, lt layerTimes, priv *relation.Relation, part *partition.Partitioning, sess *paq.Session) error {
	res := e.res
	kernel, kernelQueries, err := e.kernelTable()
	if err != nil {
		return err
	}
	snap := priv.Snapshot()
	eng := engine.New(engine.SketchRefine{Part: part, Opt: refineOptions()})
	var (
		vars, rows, rootIters, nodes, ilpIters, exhausted  []float64
		lpAlloc, ilpAllocPerNode, usPerIter, usPerNode     []float64
		subproblems, backtracks, falseInf, backtrackRatios []float64
		prepMS, sketchMS, refineMS, overheadUS             []float64
	)
	for qi, q := range e.queries {
		op := e.rec.newOp()
		root := e.rec.begin(nil, op, "ladder.query")

		// Front end, against the workload's table.
		var ast *paql.Query
		d, err := e.repeat(root, op, "paql.parse", 20, func() (err error) {
			ast, err = paql.Parse(q.paql)
			return err
		})
		if err != nil {
			return fmt.Errorf("%s: paql.Parse: %w", q.name, err)
		}
		lt.add("paql.parse", d)
		var spec *core.Spec
		d, err = e.repeat(root, op, "translate.translate", 20, func() (err error) {
			spec, err = translate.Translate(ast, e.rel)
			return err
		})
		if err != nil {
			return fmt.Errorf("%s: translate.Translate: %w", q.name, err)
		}
		lt.add("translate.translate", d)
		d, _ = e.repeat(root, op, "relation.base_scan", 5, func() error {
			spec.BaseRows()
			return nil
		})
		lt.add("relation.base_scan", d)

		// Kernel, against the DIRECT-sized table.
		kq := kernelQueries[qi]
		kspec, err := translate.Compile(kq.paql, kernel)
		if err != nil {
			return fmt.Errorf("%s: kernel compile: %w", q.name, err)
		}
		var kscan time.Duration
		var krows []int
		kscan, _ = e.timed(root, op, "relation.base_scan.kernel", func() error {
			krows = kspec.BaseRows()
			return nil
		})
		var prob *ilp.Problem
		dBuild, err := e.repeat(root, op, "core.build_ilp", 3, func() (err error) {
			prob, err = core.BuildILP(kspec, krows, nil)
			return err
		})
		if err != nil {
			return fmt.Errorf("%s: core.BuildILP: %w", q.name, err)
		}
		lt.add("core.build_ilp", dBuild)
		vars = append(vars, float64(prob.LP.NumVars()))
		rows = append(rows, float64(prob.LP.NumRows()))

		var sol *lp.Solution
		var kb float64
		d, err = e.repeat(root, op, "lp.root_solve", 3, func() error {
			var err error
			kb, err = allocKB(func() (err error) {
				sol, err = lp.SolveCtx(ctx, &prob.LP)
				return err
			})
			return err
		})
		if err != nil {
			return fmt.Errorf("%s: lp.SolveCtx: %w", q.name, err)
		}
		lt.add("lp.root_solve", d)
		rootIters = append(rootIters, float64(sol.Iterations))
		usPerIter = append(usPerIter, us(d)/float64(max(1, sol.Iterations)))
		lpAlloc = append(lpAlloc, kb)

		var ir *ilp.Result
		sp := e.rec.begin(root, op, "ilp.solve")
		kb, err = allocKB(func() (err error) {
			ir, err = ilp.SolveCtx(ctx, prob, solverBudget())
			return err
		})
		d = sp.end()
		if err != nil {
			return fmt.Errorf("%s: ilp.SolveCtx: %w", q.name, err)
		}
		sp.count("nodes", float64(ir.Nodes))
		sp.count("lp_iterations", float64(ir.LPIterations))
		lt.add("ilp.solve", d)
		lt.add("direct.staged", kscan+dBuild+d)
		nodes = append(nodes, float64(ir.Nodes))
		ilpIters = append(ilpIters, float64(ir.LPIterations))
		usPerNode = append(usPerNode, us(d)/float64(ir.Nodes+1))
		ilpAllocPerNode = append(ilpAllocPerNode, kb/float64(ir.Nodes+1))
		if ir.Status == ilp.ResourceLimit {
			exhausted = append(exhausted, 1)
		} else {
			exhausted = append(exhausted, 0)
		}

		// SketchRefine, against a snapshot of the ladder's private table.
		var view *partition.Partitioning
		dv, _ := e.timed(root, op, "partition.view", func() error {
			view = part.View(snap)
			return nil
		})
		lt.add("partition.view", dv)
		sspec, err := translate.Compile(q.paql, snap)
		if err != nil {
			return fmt.Errorf("%s: compile on snapshot: %w", q.name, err)
		}
		var stats *core.EvalStats
		sp = e.rec.begin(root, op, "sketchrefine.evaluate")
		_, stats, err = sketchrefine.EvaluateCtx(ctx, sspec, view, refineOptions())
		d = sp.end()
		fi := 0.0
		switch {
		case errors.Is(err, sketchrefine.ErrFalseInfeasible):
			fi = 1
		case err != nil:
			return fmt.Errorf("%s: sketchrefine.EvaluateCtx: %w", q.name, err)
		}
		sp.count("subproblems", float64(stats.Subproblems))
		sp.count("backtracks", float64(stats.Backtracks))
		lt.add("sketchrefine.evaluate", d)
		lt.add("sketchrefine.staged", dv+d)
		falseInf = append(falseInf, fi)
		subproblems = append(subproblems, float64(stats.Subproblems))
		backtracks = append(backtracks, float64(stats.Backtracks))
		backtrackRatios = append(backtrackRatios, float64(stats.Backtracks)/float64(max(1, stats.Subproblems-1)))

		// engine: the cache key, then a hit on an already-cached spec.
		hspec, err := translate.Compile(q.paql, priv)
		if err != nil {
			return fmt.Errorf("%s: compile on head: %w", q.name, err)
		}
		d, _ = e.repeat(root, op, "engine.spec_key", 20, func() error {
			engine.SpecKey(hspec)
			return nil
		})
		lt.add("engine.spec_key", d)
		if fi == 0 {
			if r := eng.Evaluate(ctx, hspec); r.Err != nil {
				return fmt.Errorf("%s: engine.Evaluate: %w", q.name, r.Err)
			}
			d, err = e.repeat(root, op, "engine.cache_hit", 20, func() error {
				if r := eng.Evaluate(ctx, hspec); r.Err != nil || !r.Cached {
					return fmt.Errorf("not served from the cache (err %v)", r.Err)
				}
				return nil
			})
			if err != nil {
				return fmt.Errorf("%s: engine cache hit: %w", q.name, err)
			}
			lt.add("engine.cache_hit", d)
		}

		// paq: Prepare, then one traced Execute.
		var st *paq.Stmt
		d, err = e.repeat(root, op, "paq.prepare", 5, func() (err error) {
			st, err = sess.Prepare(q.paql)
			return err
		})
		if err != nil {
			return fmt.Errorf("%s: Session.Prepare: %w", q.name, err)
		}
		lt.add("paq.prepare", d)
		sp = e.rec.begin(root, op, "paq.execute")
		r, err := st.Execute(ctx, paq.WithTrace())
		d = sp.end()
		if err == nil {
			tree := r.Trace()
			sp.attach(op, tree)
			solve := spanMS(tree, "solve")
			overheadUS = append(overheadUS, us(d)-solve*1000)
			prepMS = append(prepMS, spanMS(tree, "prepare"))
			sketchMS = append(sketchMS, spanMS(tree, "sketch")+spanMS(tree, "hybrid_sketch"))
			refineMS = append(refineMS, spanMS(tree, "refine"))
		} else if !errors.Is(err, paq.ErrFalseInfeasible) {
			return fmt.Errorf("%s: traced Execute: %w", q.name, err)
		}
		root.end()
	}

	med := func(name string) float64 { return median(lt[name]) }
	res.set("paql.parse_us", med("paql.parse"), "us")
	res.set("translate.translate_us", med("translate.translate"), "us")
	res.set("relation.base_scan_ms", med("relation.base_scan")/1000, "ms")
	res.set("core.build_ilp_ms", med("core.build_ilp")/1000, "ms")
	res.set("core.ilp_vars", median(vars), "count")
	res.set("core.ilp_rows", median(rows), "count")
	res.set("lp.root_solve_ms", med("lp.root_solve")/1000, "ms")
	res.set("lp.root_iterations", sum(rootIters), "count")
	res.set("lp.us_per_iteration", median(usPerIter), "us")
	res.set("lp.alloc_kb_per_solve", median(lpAlloc), "kB")
	res.set("ilp.solve_ms", med("ilp.solve")/1000, "ms")
	res.set("ilp.nodes", sum(nodes), "count")
	res.set("ilp.lp_iterations", sum(ilpIters), "count")
	res.set("ilp.us_per_node", sum(lt["ilp.solve"])/(sum(nodes)+float64(len(nodes))), "us")
	res.set("ilp.alloc_kb_per_node", median(ilpAllocPerNode), "kB")
	res.set("ilp.budget_exhausted", sum(exhausted), "count")
	res.set("partition.view_us", med("partition.view"), "us")
	res.set("sketchrefine.evaluate_ms", med("sketchrefine.evaluate")/1000, "ms")
	res.set("sketchrefine.prepare_ms", median(prepMS), "ms")
	res.set("sketchrefine.sketch_ms", median(sketchMS), "ms")
	res.set("sketchrefine.refine_ms", median(refineMS), "ms")
	res.set("sketchrefine.subproblems", sum(subproblems), "count")
	res.set("sketchrefine.backtracks", sum(backtracks), "count")
	// On ingest, plus what the sweep saw on the mutated table.
	res.set("sketchrefine.false_infeasible", sum(falseInf)+float64(res.observed["false_infeasible"]), "count")
	res.set("sketchrefine.backtrack_ratio", mean(backtrackRatios), "ratio")
	res.set("engine.spec_key_us", med("engine.spec_key"), "us")
	res.set("engine.cache_hit_us", med("engine.cache_hit"), "us")
	res.set("paq.prepare_us", med("paq.prepare"), "us")
	res.set("paq.execute_overhead_us", median(overheadUS), "us")
	return nil
}

// spanMS sums the durations of every span with the name in a program
// span tree.
func spanMS(n *paq.TraceNode, name string) float64 {
	if n == nil {
		return 0
	}
	total := 0.0
	if n.Name == name {
		total += n.DurationMS
	}
	for _, c := range n.Children {
		total += spanMS(c, name)
	}
	return total
}

// ladderBatches replays a short seeded batch stream against the raw
// layers a session's mutation path is made of: Store.Log*, the
// relation's Append/Delete/Set with a snapshot alive (so updates pay
// their copy-on-write clone), and the partition Maintainer; after each
// batch it takes the snapshot and the partitioning view the next solve
// would pin.
func (e *env) ladderBatches(lt layerTimes, priv *relation.Relation, part *partition.Partitioning) error {
	res := e.res
	dir, err := e.scratch("ladder-store")
	if err != nil {
		return err
	}
	st, err := store.Open(dir)
	if err != nil {
		return fmt.Errorf("store.Open: %w", err)
	}
	defer st.Close()
	maint := partition.NewMaintainer(part, partition.MaintOptions{})
	stream := newMutationStream(priv.Len(), e.sz.LadderBatches, e.cfg.seed)
	schema := priv.Schema()
	snap := priv.Snapshot()
	for k := 0; k < e.sz.LadderBatches; k++ {
		b := stream.batch(k)
		kind := b.kind.String()
		op := e.rec.newOp()
		root := e.rec.begin(nil, op, "ladder.batch")
		pre := priv.Version()

		dLog, err := e.timed(root, op, "store.wal_append", func() error {
			switch b.kind {
			case mutInsert:
				return st.LogInsert(schema, pre, b.vals)
			case mutDelete:
				return st.LogDelete(pre, b.rows)
			default:
				return st.LogUpdate(schema, pre, b.rows, b.vals)
			}
		})
		if err != nil {
			return fmt.Errorf("store log (%s): %w", kind, err)
		}
		if b.kind == mutInsert {
			lt.add("store.wal_append", dLog)
		}

		rows := b.rows
		dApply, err := e.timed(root, op, "relation.apply_"+kind, func() error {
			switch b.kind {
			case mutInsert:
				rows = make([]int, len(b.vals))
				for i, vals := range b.vals {
					rows[i] = priv.Len()
					if err := priv.Append(vals...); err != nil {
						return err
					}
				}
			case mutDelete:
				for _, row := range b.rows {
					if err := priv.Delete(row); err != nil {
						return err
					}
				}
			default:
				for i, row := range b.rows {
					for c, v := range b.vals[i] {
						if err := priv.Set(row, c, v); err != nil {
							return err
						}
					}
				}
			}
			return nil
		})
		if err != nil {
			return fmt.Errorf("relation apply (%s): %w", kind, err)
		}
		if b.kind == mutUpdate {
			lt.add("relation.update_per_row", dApply/batchRows)
		}

		dMaint, err := e.timed(root, op, "partition.maintain_"+kind, func() error {
			switch b.kind {
			case mutInsert:
				return maint.Insert(rows...)
			case mutDelete:
				return maint.Delete(rows...)
			default:
				return maint.Update(rows...)
			}
		})
		if err != nil {
			return fmt.Errorf("maintain (%s): %w", kind, err)
		}
		lt.add("partition.maintain_"+kind+"_per_row", dMaint/batchRows)
		lt.add("ingest.staged_"+kind, dLog+dApply+dMaint)

		d, _ := e.timed(root, op, "relation.snapshot", func() error {
			snap = priv.Snapshot()
			return nil
		})
		lt.add("relation.snapshot", d)
		_, _ = e.timed(root, op, "partition.view", func() error {
			part.View(snap)
			return nil
		})
		root.end()
	}
	mst := maint.Stats()
	med := func(name string) float64 { return median(lt[name]) }
	res.set("store.wal_append_us", med("store.wal_append"), "us")
	res.set("relation.update_us_per_row", med("relation.update_per_row"), "us")
	res.set("relation.snapshot_us", med("relation.snapshot"), "us")
	res.set("partition.maintain_insert_us_per_row", med("partition.maintain_insert_per_row"), "us")
	res.set("partition.maintain_delete_us_per_row", med("partition.maintain_delete_per_row"), "us")
	res.set("partition.maintain_update_us_per_row", med("partition.maintain_update_per_row"), "us")
	res.set("partition.maintain_splits", float64(mst.Splits), "count")
	res.set("partition.maintain_merges", float64(mst.Merges), "count")
	res.set("partition.maintain_heals", float64(mst.Heals), "count")
	return nil
}

// ladderServer puts the ladder's session behind the HTTP handler and
// times a cached /query, an explain, and the same cached query
// in-process; the difference is what the server layer adds.
func (e *env) ladderServer(ctx context.Context, lt layerTimes, sess *paq.Session) error {
	res := e.res
	h, err := startServerFromSession(sess)
	if err != nil {
		return err
	}
	defer h.stop()
	cl := newClient(h.url)
	defer cl.close()
	q := e.queries[0]
	if _, err := cl.query(ctx, q.paql, false); err != nil {
		return fmt.Errorf("server warm-up: %w", err)
	}
	var body []byte
	for i := 0; i < 30; i++ {
		op := e.rec.newOp()
		d, err := e.timed(nil, op, "server.hit_roundtrip", func() (err error) {
			body, err = cl.query(ctx, q.paql, false)
			return err
		})
		if err != nil {
			return fmt.Errorf("server hit: %w", err)
		}
		lt.add("server.hit_roundtrip", d)
		d, err = e.timed(nil, op, "server.explain_roundtrip", func() error {
			_, err := cl.query(ctx, q.paql, true)
			return err
		})
		if err != nil {
			return fmt.Errorf("server explain: %w", err)
		}
		lt.add("server.explain_roundtrip", d)
		d, err = e.timed(nil, op, "paq.prepare_execute_cached", func() error {
			st, err := sess.Prepare(q.paql)
			if err != nil {
				return err
			}
			_, err = st.Execute(ctx)
			return err
		})
		if err != nil {
			return fmt.Errorf("in-process cached query: %w", err)
		}
		lt.add("paq.prepare_execute_cached", d)
	}
	if !bytes.Contains(body, []byte(`"cached":true`)) {
		return fmt.Errorf("server hit probe was not served from the cache: %s", body)
	}
	hit, inproc := median(lt["server.hit_roundtrip"]), median(lt["paq.prepare_execute_cached"])
	res.set("server.hit_roundtrip_us", hit, "us")
	res.set("server.explain_roundtrip_us", median(lt["server.explain_roundtrip"]), "us")
	res.set("server.response_bytes", float64(len(body)), "B")
	res.set("server.overhead_us", hit-inproc, "us")
	stats := h.srv.Stats()
	res.setIfAbsent("server.rejected", float64(stats.Rejected), "count")
	res.setIfAbsent("server.timeouts", float64(stats.Timeouts), "count")
	return nil
}

// coverage reports which share of the workload's untraced operation the
// ladder's staged calls account for. Below 0.9 the attribution of a
// change to a layer is unresolved.
func (e *env) coverage(lt layerTimes) {
	covered, total := 0.0, 0.0
	add := func(staged, whole float64) {
		if whole > 0 {
			covered += min(staged, whole)
			total += whole
		}
	}
	switch e.cfg.workload {
	case "direct":
		for q, whole := range e.untracedExecMS {
			add(lt["direct.staged"][q]/1000, whole)
		}
	case "sketchrefine":
		for q, whole := range e.untracedExecMS {
			add(lt["sketchrefine.staged"][q]/1000, whole)
		}
	case "ingest":
		for kind, whole := range e.untracedAckMS {
			add(median(lt["ingest.staged_"+kind.String()])/1000, whole)
		}
	case "serve":
		add(median(lt["paq.prepare_execute_cached"]), median(lt["server.hit_roundtrip"]))
	}
	if total > 0 {
		e.res.set("bench.trace_coverage_frac", covered/total, "ratio")
	} else {
		e.res.set("bench.trace_coverage_frac", 0, "ratio")
	}
}
