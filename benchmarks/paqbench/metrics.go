package main

import (
	"repro/paq"
)

// metricDef names one metric and its unit. The two lists below are the
// benchmark's contract: BENCHMARK.json at the repository root names the
// same metrics, and the smoke test holds the two together.
type metricDef struct {
	name, unit string
}

// endToEnd are the metrics a caller of the system sees on every
// workload, measured with tracing off. The driver has every workload
// report every one of them, so the list holds only what all four have:
// every workload opens a session, runs queries (the ingest workload
// between its batches), returns packages and uses memory.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"query_p50_ms", "ms"},
	{"queries_per_s", "1/s"},
	{"objective_gap", "ratio"},
	{"mem_peak_mb", "MB"},
}

// perLayer are the metrics of single layers, reported by a traced run.
var perLayer = []metricDef{
	{"paql.parse_us", "us"},
	{"translate.translate_us", "us"},
	{"relation.load_csv_ms", "ms"},
	{"relation.base_scan_ms", "ms"},
	{"relation.snapshot_us", "us"},
	{"relation.update_us_per_row", "us"},
	{"partition.build_ms", "ms"},
	{"partition.groups", "count"},
	{"partition.view_us", "us"},
	{"partition.maintain_insert_us_per_row", "us"},
	{"partition.maintain_delete_us_per_row", "us"},
	{"partition.maintain_update_us_per_row", "us"},
	{"partition.maintain_splits", "count"},
	{"partition.maintain_merges", "count"},
	{"partition.maintain_heals", "count"},
	{"core.build_ilp_ms", "ms"},
	{"core.ilp_vars", "count"},
	{"core.ilp_rows", "count"},
	{"lp.root_solve_ms", "ms"},
	{"lp.root_iterations", "count"},
	{"lp.us_per_iteration", "us"},
	{"lp.alloc_kb_per_solve", "kB"},
	{"ilp.solve_ms", "ms"},
	{"ilp.nodes", "count"},
	{"ilp.lp_iterations", "count"},
	{"ilp.us_per_node", "us"},
	{"ilp.alloc_kb_per_node", "kB"},
	{"ilp.budget_exhausted", "count"},
	{"sketchrefine.evaluate_ms", "ms"},
	{"sketchrefine.prepare_ms", "ms"},
	{"sketchrefine.sketch_ms", "ms"},
	{"sketchrefine.refine_ms", "ms"},
	{"sketchrefine.subproblems", "count"},
	{"sketchrefine.backtracks", "count"},
	{"sketchrefine.false_infeasible", "count"},
	{"sketchrefine.backtrack_ratio", "ratio"},
	{"engine.spec_key_us", "us"},
	{"engine.cache_hit_us", "us"},
	{"engine.cache_hit_ratio", "ratio"},
	{"engine.cache_invalidations", "count"},
	{"paq.open_ms", "ms"},
	{"paq.prepare_us", "us"},
	{"paq.execute_overhead_us", "us"},
	{"paq.pin_wait_max_us", "us"},
	{"store.wal_append_us", "us"},
	{"store.wal_appends", "count"},
	{"store.wal_syncs", "count"},
	{"store.wal_bytes", "B"},
	{"store.replay_ms", "ms"},
	{"store.replay_ops_per_s", "1/s"},
	{"store.recover_apply_ms", "ms"},
	{"store.snapshot_write_ms", "ms"},
	{"store.snapshot_bytes", "B"},
	{"server.hit_roundtrip_us", "us"},
	{"server.explain_roundtrip_us", "us"},
	{"server.response_bytes", "B"},
	{"server.overhead_us", "us"},
	{"server.rejected", "count"},
	{"server.timeouts", "count"},
	{"obs.trace_overhead_frac", "ratio"},
	{"bench.datagen_s", "s"},
	{"bench.reference_s", "s"},
	{"bench.trace_coverage_frac", "ratio"},
	{"bench.failed_frac", "ratio"},
	// The tail of the workload's untraced phase. It has the 200 samples a
	// 95th percentile needs on sketchrefine and serve only, and on ingest
	// it is a property of the seed's batches, so it carries no bound.
	{"query_p95_ms", "ms"},
	// What a caller of the ingest workload sees of the write path. On
	// ingest they come from the workload's own untraced phase, on the
	// query workloads from the ladder's durable probe (ladderDurable).
	{"ingest_rows_per_s", "1/s"},
	{"ingest_ack_p50_ms", "ms"},
	{"ingest_ack_p95_ms", "ms"},
	{"recover_s", "s"},
	{"wal_bytes_per_row", "B"},
}

// workloadNames are the four workloads, in the order -workload all
// runs them.
var workloadNames = []string{"direct", "sketchrefine", "ingest", "serve"}

func (r *result) setIfAbsent(name string, v float64, unit string) {
	if _, ok := r.metrics[name]; !ok {
		r.set(name, v, unit)
	}
}

// traceOverhead reports the price of the traced run: the share of the
// untraced throughput that tracing costs.
func (e *env) traceOverhead(untraced, traced float64) {
	frac := 0.0
	if untraced > 0 {
		frac = (untraced - traced) / untraced
	}
	e.res.set("obs.trace_overhead_frac", frac, "ratio")
}

// sessionCounters reports the cache and pin counters of the session
// that served the workload's timed phase.
func (e *env) sessionCounters(sess *paq.Session) {
	var hits, misses, invalidations uint64
	for _, cs := range sess.CacheStats() {
		hits += cs.Hits
		misses += cs.Misses
		invalidations += cs.Invalidations
	}
	ratio := 0.0
	if hits+misses > 0 {
		ratio = float64(hits) / float64(hits+misses)
	}
	e.res.set("engine.cache_hit_ratio", ratio, "ratio")
	e.res.set("engine.cache_invalidations", float64(invalidations), "count")
	e.res.set("paq.pin_wait_max_us", us(sess.PinStats().WaitMax), "us")
}

// durLayer reports the store's counters of a mutation phase and the
// split of its recovery.
func (e *env) durLayer(ph *durPhase) {
	res := e.res
	res.set("store.wal_appends", float64(ph.stats.WALAppends), "count")
	res.set("store.wal_syncs", float64(ph.stats.WALSyncs), "count")
	res.set("store.wal_bytes", float64(ph.stats.WALBytes), "B")
	res.set("store.replay_ms", ms(ph.replayNoop), "ms")
	opsPerS := 0.0
	if ph.replayNoop > 0 {
		opsPerS = float64(ph.replayOps) / ph.replayNoop.Seconds()
	}
	res.set("store.replay_ops_per_s", opsPerS, "1/s")
	res.set("store.recover_apply_ms", ms(ph.recover-ph.replayNoop), "ms")
	res.set("store.snapshot_write_ms", ms(ph.snapWrite), "ms")
	res.set("store.snapshot_bytes", float64(ph.snapBytes), "B")
}
