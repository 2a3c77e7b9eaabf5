// Prometheus-surface wiring. paqld's /metrics endpoint and its /stats
// JSON render through one obs.Registry: every request-path counter in
// the counters struct IS a registered metric cell, and the dynamic
// families (per-dataset caches, QoS occupancy, replication lag) are
// collectors closing over the same state /stats snapshots — the two
// surfaces cannot drift because there is nothing to drift between.
package server

import (
	"time"

	"repro/internal/obs"
	"repro/paq"
)

// newCounters registers every request-path counter on the registry.
// The returned cells are both the /stats source and the /metrics
// series.
func newCounters(reg *obs.Registry) counters {
	return counters{
		queries:      reg.Counter("paqld_queries_total", "POST /query requests received."),
		ok:           reg.Counter("paqld_queries_ok_total", "Queries answered with a package."),
		infeasible:   reg.Counter("paqld_infeasible_total", "Queries answered with an infeasibility verdict."),
		truncated:    reg.Counter("paqld_truncated_total", "Queries answered with a budget-limited incumbent."),
		badRequest:   reg.Counter("paqld_bad_requests_total", "Malformed requests (parse/translate errors, unknown datasets)."),
		rejected:     reg.Counter("paqld_rejected_total", "Requests refused at admission (429 shed at the edge)."),
		timeouts:     reg.Counter("paqld_timeouts_total", "Requests that hit their deadline (solving or queued)."),
		failures:     reg.Counter("paqld_failures_total", "Evaluation and internal failures."),
		explains:     reg.Counter("paqld_explains_total", "EXPLAIN requests answered from the plan."),
		incumbents:   reg.Counter("paqld_incumbents_total", "Improving ILP incumbents streamed across all solves."),
		backtracks:   reg.Counter("paqld_backtracks_total", "SketchRefine refinement backtracks."),
		subproblems:  reg.Counter("paqld_subproblems_total", "ILP subproblems solved."),
		mutations:    reg.Counter("paqld_mutations_total", "Mutation batches applied."),
		rowsInserted: reg.Counter("paqld_rows_inserted_total", "Rows inserted."),
		rowsDeleted:  reg.Counter("paqld_rows_deleted_total", "Rows deleted."),
		rowsUpdated:  reg.Counter("paqld_rows_updated_total", "Rows updated."),
		compactions:  reg.Counter("paqld_compactions_total", "Maintenance compactions (tombstone reclamation)."),
		snapshots:    reg.Counter("paqld_snapshots_total", "Maintenance snapshots (WAL truncation)."),
	}
}

// methodCounter returns the solve counter for one evaluation method
// (the /metrics method-mix family and the /stats "methods" block read
// the same cells).
func (s *Server) methodCounter(method string) *obs.Counter {
	s.methodMu.Lock()
	defer s.methodMu.Unlock()
	c := s.methodCtr[method]
	if c == nil {
		c = s.reg.Counter("paqld_solves_total",
			"Completed solves (package or infeasibility verdict) by method.",
			obs.Label{Name: "method", Value: method})
		s.methodCtr[method] = c
	}
	return c
}

// methodMix snapshots the per-method solve counts for /stats.
func (s *Server) methodMix() map[string]uint64 {
	s.methodMu.Lock()
	defer s.methodMu.Unlock()
	if len(s.methodCtr) == 0 {
		return nil
	}
	out := make(map[string]uint64, len(s.methodCtr))
	for m, c := range s.methodCtr {
		out[m] = c.Value()
	}
	return out
}

// Metrics returns the server's metric registry, served at GET /metrics.
// paqld adds process-level runtime gauges to it at startup.
func (s *Server) Metrics() *obs.Registry { return s.reg }

// SlowLog returns the server's slow-query log (nil when disabled).
func (s *Server) SlowLog() *obs.SlowLog { return s.slow }

// ReplMetrics is the replication gauge snapshot /metrics renders —
// the typed subset of the /stats "replication" block (which stays
// free-form JSON). A repl.Node installs the provider with
// SetReplMetrics alongside SetReplStats.
type ReplMetrics struct {
	Epoch  uint64
	Leader bool
	Fenced bool
	// Lag is the per-dataset follower version lag (leader − local).
	Lag map[string]uint64
}

// SetReplMetrics installs the replication metrics provider. Pass nil
// to clear; the replication families then render no samples.
func (s *Server) SetReplMetrics(fn func() ReplMetrics) {
	s.replMu.Lock()
	defer s.replMu.Unlock()
	s.replMetrics = fn
}

// registerCollectors wires the dynamic metric families: scrape-time
// collectors over the same QoS, dataset, and replication state /stats
// reports.
func (s *Server) registerCollectors() {
	reg := s.reg
	reg.GaugeFunc("paqld_uptime_seconds", "Seconds since the server started.",
		func() float64 { return time.Since(s.start).Seconds() })
	reg.GaugeFunc("paqld_draining", "1 while the server refuses new requests (shutdown drain).",
		func() float64 {
			if s.isDraining() {
				return 1
			}
			return 0
		})
	reg.CollectFunc("paqld_solve_seconds_total", "counter",
		"Cumulative wall-clock solver time.",
		func() []obs.Sample {
			return []obs.Sample{{Value: float64(s.ctr.solveNanos.Load()) / 1e9}}
		})

	// QoS classes: one sample per class from the same stats() snapshot
	// /stats serves.
	qos := func(pick func(QoSStats) float64) func() []obs.Sample {
		return func() []obs.Sample {
			return []obs.Sample{
				{Labels: []obs.Label{{Name: "class", Value: "solve"}}, Value: pick(s.solve.stats())},
				{Labels: []obs.Label{{Name: "class", Value: "ingest"}}, Value: pick(s.ingest.stats())},
			}
		}
	}
	reg.CollectFunc("paqld_qos_in_flight", "gauge", "Requests holding a slot, per QoS class.",
		qos(func(st QoSStats) float64 { return float64(st.InFlight) }))
	reg.CollectFunc("paqld_qos_queued", "gauge", "Requests waiting for a slot, per QoS class.",
		qos(func(st QoSStats) float64 { return float64(st.Queued) }))
	reg.CollectFunc("paqld_qos_admitted_total", "counter", "Requests that claimed a slot, per QoS class.",
		qos(func(st QoSStats) float64 { return float64(st.Admitted) }))
	reg.CollectFunc("paqld_qos_rejected_total", "counter", "Queue-overflow refusals, per QoS class.",
		qos(func(st QoSStats) float64 { return float64(st.Rejected) }))
	reg.CollectFunc("paqld_qos_deadline_expired_total", "counter", "Deadlines fired while queued, per QoS class.",
		qos(func(st QoSStats) float64 { return float64(st.DeadlineExpired) }))
	reg.CollectFunc("paqld_qos_fairness_deferrals_total", "counter", "Waits imposed solely by the fair-share clamp, per QoS class.",
		qos(func(st QoSStats) float64 { return float64(st.FairnessDeferrals) }))
	reg.CollectFunc("paqld_qos_wait_seconds_total", "counter", "Total admission wait, per QoS class.",
		qos(func(st QoSStats) float64 { return st.WaitMSTotal / 1e3 }))
	reg.CollectFunc("paqld_qos_max_wait_seconds", "gauge", "Worst admission wait, per QoS class.",
		qos(func(st QoSStats) float64 { return st.MaxWaitMS / 1e3 }))

	// Per-dataset families. Each collector walks the registry under the
	// read lock and emits one sample per dataset (or per dataset×method
	// for the solution caches).
	ds := func(pick func(*Dataset) float64) func() []obs.Sample {
		return func() []obs.Sample {
			s.mu.RLock()
			defer s.mu.RUnlock()
			out := make([]obs.Sample, 0, len(s.datasets))
			for name, d := range s.datasets {
				out = append(out, obs.Sample{
					Labels: []obs.Label{{Name: "dataset", Value: name}},
					Value:  pick(d),
				})
			}
			return out
		}
	}
	reg.CollectFunc("paqld_dataset_rows", "gauge", "Live rows per dataset.",
		ds(func(d *Dataset) float64 { return float64(d.Rows()) }))
	reg.CollectFunc("paqld_dataset_version", "gauge", "Mutation version per dataset.",
		ds(func(d *Dataset) float64 { return float64(d.Version()) }))
	reg.CollectFunc("paqld_pins_total", "counter", "Snapshot pins per dataset.",
		ds(func(d *Dataset) float64 { return float64(d.Session().PinStats().Pins) }))
	reg.CollectFunc("paqld_pin_wait_seconds_total", "counter", "Total pin lock wait per dataset.",
		ds(func(d *Dataset) float64 { return d.Session().PinStats().WaitTotal.Seconds() }))

	cache := func(pick func(paq.CacheStats) float64) func() []obs.Sample {
		return func() []obs.Sample {
			s.mu.RLock()
			defer s.mu.RUnlock()
			var out []obs.Sample
			for name, d := range s.datasets {
				for m, cs := range d.Session().CacheStats() {
					out = append(out, obs.Sample{
						Labels: []obs.Label{
							{Name: "dataset", Value: name},
							{Name: "method", Value: string(m)},
						},
						Value: pick(cs),
					})
				}
			}
			return out
		}
	}
	reg.CollectFunc("paqld_cache_hits_total", "counter", "Solution-cache hits per dataset and method.",
		cache(func(cs paq.CacheStats) float64 { return float64(cs.Hits) }))
	reg.CollectFunc("paqld_cache_misses_total", "counter", "Solution-cache misses per dataset and method.",
		cache(func(cs paq.CacheStats) float64 { return float64(cs.Misses) }))
	reg.CollectFunc("paqld_cache_evictions_total", "counter", "Solution-cache evictions per dataset and method.",
		cache(func(cs paq.CacheStats) float64 { return float64(cs.Evictions) }))
	reg.CollectFunc("paqld_cache_invalidations_total", "counter", "Version-driven solution-cache invalidations per dataset and method.",
		cache(func(cs paq.CacheStats) float64 { return float64(cs.Invalidations) }))
	reg.CollectFunc("paqld_cache_entries", "gauge", "Cached solutions per dataset and method.",
		cache(func(cs paq.CacheStats) float64 { return float64(cs.Entries) }))

	// Durability: samples only for durable datasets.
	dur := func(pick func(paq.DurStats) float64) func() []obs.Sample {
		return func() []obs.Sample {
			s.mu.RLock()
			defer s.mu.RUnlock()
			var out []obs.Sample
			for name, d := range s.datasets {
				st := d.DurStats()
				if !st.Durable {
					continue
				}
				out = append(out, obs.Sample{
					Labels: []obs.Label{{Name: "dataset", Value: name}},
					Value:  pick(st),
				})
			}
			return out
		}
	}
	reg.CollectFunc("paqld_wal_bytes", "gauge", "Write-ahead log size per durable dataset.",
		dur(func(st paq.DurStats) float64 { return float64(st.WALBytes) }))
	reg.CollectFunc("paqld_wal_appends_total", "counter", "WAL appends per durable dataset.",
		dur(func(st paq.DurStats) float64 { return float64(st.WALAppends) }))
	reg.CollectFunc("paqld_wal_syncs_total", "counter", "WAL fsync rounds per durable dataset.",
		dur(func(st paq.DurStats) float64 { return float64(st.WALSyncs) }))
	reg.CollectFunc("paqld_snapshot_version", "gauge", "Latest snapshot's dataset version per durable dataset.",
		dur(func(st paq.DurStats) float64 { return float64(st.SnapshotVersion) }))

	// Replication: rendered only while a repl.Node has installed the
	// provider.
	replGauge := func(pick func(ReplMetrics) float64) func() []obs.Sample {
		return func() []obs.Sample {
			s.replMu.RLock()
			fn := s.replMetrics
			s.replMu.RUnlock()
			if fn == nil {
				return nil
			}
			return []obs.Sample{{Value: pick(fn())}}
		}
	}
	b2f := func(b bool) float64 {
		if b {
			return 1
		}
		return 0
	}
	reg.CollectFunc("paqld_repl_epoch", "gauge", "Replication epoch this node believes in.",
		replGauge(func(m ReplMetrics) float64 { return float64(m.Epoch) }))
	reg.CollectFunc("paqld_repl_leader", "gauge", "1 when this node is the leader.",
		replGauge(func(m ReplMetrics) float64 { return b2f(m.Leader) }))
	reg.CollectFunc("paqld_repl_fenced", "gauge", "1 when this node has been fenced by a newer epoch.",
		replGauge(func(m ReplMetrics) float64 { return b2f(m.Fenced) }))
	reg.CollectFunc("paqld_repl_lag", "gauge", "Follower version lag (leader − local) per dataset.",
		func() []obs.Sample {
			s.replMu.RLock()
			fn := s.replMetrics
			s.replMu.RUnlock()
			if fn == nil {
				return nil
			}
			m := fn()
			out := make([]obs.Sample, 0, len(m.Lag))
			for name, lag := range m.Lag {
				out = append(out, obs.Sample{
					Labels: []obs.Label{{Name: "dataset", Value: name}},
					Value:  float64(lag),
				})
			}
			return out
		})
}
