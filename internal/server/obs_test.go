package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/workload"
	"repro/paq"
)

// newObsServer builds a server over one Galaxy dataset, large enough
// that a SketchRefine solve takes long enough to dwarf the per-request
// bookkeeping the trace test bounds.
func newObsServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	srv := New(cfg)
	ds, err := NewDataset("galaxy", workload.Galaxy(2000, 3), testDatasetConfig())
	if err != nil {
		t.Fatal(err)
	}
	srv.Register(ds)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return srv, ts
}

const obsFeasibleQuery = `SELECT PACKAGE(G) AS P FROM galaxy G REPEAT 0
SUCH THAT COUNT(P.*) = 3
MAXIMIZE SUM(P.petrorad)`

const obsInfeasibleQuery = `SELECT PACKAGE(G) AS P FROM galaxy G REPEAT 0
SUCH THAT COUNT(P.*) = 3 AND SUM(P.redshift) <= -1
MINIMIZE SUM(P.r)`

// galaxyLabel is the label of the test server's one dataset's series.
var galaxyLabel = obs.Label{Name: "dataset", Value: "galaxy"}

// TestMetricsExposition drives a mixed workload and reads the /metrics
// response back by series key: the families the dashboards depend on
// must be present with the right types and values.
func TestMetricsExposition(t *testing.T) {
	_, ts := newObsServer(t, Config{})
	client := ts.Client()

	for _, q := range []QueryRequest{
		{Dataset: "galaxy", Query: obsFeasibleQuery, Method: MethodDirect},
		{Dataset: "galaxy", Query: obsFeasibleQuery, Method: MethodSketchRefine},
		{Dataset: "galaxy", Query: obsInfeasibleQuery, Method: MethodDirect},
		{Dataset: "nope", Query: obsFeasibleQuery},
	} {
		if _, _, err := postQuery(client, ts.URL, q); err != nil {
			t.Fatal(err)
		}
	}

	resp, err := client.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics: status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "version=0.0.4") {
		t.Errorf("Content-Type %q lacks the exposition version", ct)
	}
	types, values, err := obs.ReadText(resp.Body)
	if err != nil {
		t.Fatalf("exposition does not read back: %v", err)
	}

	for family, typ := range map[string]string{
		"paqld_queries_total":      "counter",
		"paqld_queries_ok_total":   "counter",
		"paqld_infeasible_total":   "counter",
		"paqld_bad_requests_total": "counter",
		"paqld_solves_total":       "counter",
		"paqld_solve_seconds":      "histogram",
		"paqld_qos_in_flight":      "gauge",
		"paqld_qos_admitted_total": "counter",
		"paqld_dataset_rows":       "gauge",
		"paqld_cache_misses_total": "counter",
		"paqld_uptime_seconds":     "gauge",
		"paqld_draining":           "gauge",
	} {
		if got := types[family]; got != typ {
			t.Errorf("family %s: TYPE %q, want %q", family, got, typ)
		}
	}

	if v, ok := values["paqld_queries_total"]; !ok || v != 4 {
		t.Errorf("paqld_queries_total = %v (present %v), want 4", v, ok)
	}
	if v, ok := values[obs.SeriesKey("paqld_solves_total", obs.Label{Name: "method", Value: MethodSketchRefine})]; !ok || v != 1 {
		t.Errorf("paqld_solves_total{method=sketchrefine} = %v (present %v), want 1", v, ok)
	}
	if v, ok := values[obs.SeriesKey("paqld_dataset_rows", galaxyLabel)]; !ok || v != 2000 {
		t.Errorf("paqld_dataset_rows{dataset=galaxy} = %v (present %v), want 2000", v, ok)
	}
	// The latency histogram sees the two feasible fresh solves (an
	// infeasibility verdict carries no result to time); its +Inf bucket
	// and _count must agree.
	if v, ok := values["paqld_solve_seconds_count"]; !ok || v != 2 {
		t.Errorf("paqld_solve_seconds_count = %v (present %v), want 2", v, ok)
	}
	inf, ok := values[obs.SeriesKey("paqld_solve_seconds_bucket", obs.Label{Name: "le", Value: "+Inf"})]
	if !ok || inf != 2 {
		t.Errorf("paqld_solve_seconds_bucket{le=+Inf} = %v (present %v), want 2", inf, ok)
	}
}

// TestMetricsNamesAreLegal fills every family the server registers — a
// durable dataset, replication metrics installed, the
// runtime gauges — and holds each line of the exposition to the
// Prometheus text grammar: every TYPE'd name and every label name legal,
// every label value quoted and escaped, and every family with a sample.
func TestMetricsNamesAreLegal(t *testing.T) {
	const (
		metricName = `[a-zA-Z_:][a-zA-Z0-9_:]*`
		label      = `[a-zA-Z_][a-zA-Z0-9_]*="(?:[^"\\\n]|\\[\\"n])*"`
	)
	var (
		typeRE   = regexp.MustCompile(`^# TYPE (` + metricName + `) (counter|gauge|histogram)$`)
		helpRE   = regexp.MustCompile(`^# HELP ` + metricName + ` `)
		sampleRE = regexp.MustCompile(`^(` + metricName + `)(?:\{` + label + `(?:,` + label + `)*\})? \S+$`)
	)

	srv := New(Config{})
	obs.RegisterRuntimeMetrics(srv.Metrics())
	ds, err := NewDataset("galaxy", workload.Galaxy(300, 3), durableConfig(t.TempDir()))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ds.Close() })
	srv.Register(ds)
	srv.SetReplMetrics(func() ReplMetrics {
		return ReplMetrics{Epoch: 1, Leader: true, Lag: map[string]uint64{"galaxy": 0}}
	})
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	for _, m := range []string{MethodDirect, MethodSketchRefine} {
		if status, raw := mustPostQuery(t, ts.Client(), ts.URL, QueryRequest{Dataset: "galaxy", Query: obsFeasibleQuery, Method: m}); status != http.StatusOK {
			t.Fatalf("%s solve: status %d (%s)", m, status, raw)
		}
	}

	resp, err := ts.Client().Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := obs.ReadText(bytes.NewReader(raw)); err != nil {
		t.Fatal(err)
	}
	types, sampled := map[string]string{}, map[string]bool{}
	for _, line := range strings.Split(strings.TrimSuffix(string(raw), "\n"), "\n") {
		if m := typeRE.FindStringSubmatch(line); m != nil {
			types[m[1]] = m[2]
		} else if m := sampleRE.FindStringSubmatch(line); m != nil {
			sampled[m[1]] = true
		} else if !helpRE.MatchString(line) {
			t.Errorf("line %q is outside the grammar", line)
		}
	}
	for name, typ := range types {
		if typ == "histogram" {
			name += "_count"
		}
		if !sampled[name] {
			t.Errorf("family %s (%s) has no sample: the test leaves it empty", name, typ)
		}
	}
}

// TestStatsMetricsConsistency asserts the no-drift property: /stats and
// /metrics render the same cells, so every counter the JSON reports
// must equal the exposition's sample — not approximately, exactly.
func TestStatsMetricsConsistency(t *testing.T) {
	srv, ts := newObsServer(t, Config{})
	client := ts.Client()
	for _, q := range []QueryRequest{
		{Dataset: "galaxy", Query: obsFeasibleQuery, Method: MethodDirect},
		{Dataset: "galaxy", Query: obsFeasibleQuery, Method: MethodSketchRefine},
		{Dataset: "galaxy", Query: obsFeasibleQuery, Method: MethodSketchRefine}, // cache hit
		{Dataset: "galaxy", Query: obsInfeasibleQuery, Method: MethodSketchRefine},
	} {
		if _, _, err := postQuery(client, ts.URL, q); err != nil {
			t.Fatal(err)
		}
	}

	// Quiesced server: no in-flight requests between the two snapshots,
	// so they must agree exactly.
	st := srv.Stats()
	resp, err := client.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	_, values, err := obs.ReadText(resp.Body)
	if err != nil {
		t.Fatal(err)
	}

	for name, want := range map[string]uint64{
		"paqld_queries_total":      st.Queries,
		"paqld_queries_ok_total":   st.OK,
		"paqld_infeasible_total":   st.Infeasible,
		"paqld_bad_requests_total": st.BadRequests,
		"paqld_failures_total":     st.Failures,
		"paqld_timeouts_total":     st.Timeouts,
		"paqld_incumbents_total":   st.Incumbents,
		"paqld_backtracks_total":   st.Backtracks,
		"paqld_subproblems_total":  st.Subproblems,
	} {
		if got, ok := values[name]; !ok || got != float64(want) {
			t.Errorf("%s = %v (present %v), /stats says %d", name, got, ok, want)
		}
	}
	for method, want := range st.Methods {
		got, ok := values[obs.SeriesKey("paqld_solves_total", obs.Label{Name: "method", Value: method})]
		if !ok || got != float64(want) {
			t.Errorf("paqld_solves_total{method=%s} = %v (present %v), /stats says %d", method, got, ok, want)
		}
	}
	for class, qs := range st.QoS {
		got, ok := values[obs.SeriesKey("paqld_qos_admitted_total", obs.Label{Name: "class", Value: class})]
		if !ok || got != float64(qs.Admitted) {
			t.Errorf("paqld_qos_admitted_total{class=%s} = %v (present %v), /stats says %d", class, got, ok, qs.Admitted)
		}
	}
	gal := st.Datasets["galaxy"]
	if got, ok := values[obs.SeriesKey("paqld_dataset_version", galaxyLabel)]; !ok || got != float64(gal.Version) {
		t.Errorf("paqld_dataset_version = %v (present %v), /stats says %d", got, ok, gal.Version)
	}
	for method, cs := range gal.Caches {
		labels := []obs.Label{galaxyLabel, {Name: "method", Value: method}}
		if got, ok := values[obs.SeriesKey("paqld_cache_hits_total", labels...)]; !ok || got != float64(cs.Hits) {
			t.Errorf("paqld_cache_hits_total{method=%s} = %v (present %v), /stats says %d", method, got, ok, cs.Hits)
		}
		if got, ok := values[obs.SeriesKey("paqld_cache_misses_total", labels...)]; !ok || got != float64(cs.Misses) {
			t.Errorf("paqld_cache_misses_total{method=%s} = %v (present %v), /stats says %d", method, got, ok, cs.Misses)
		}
	}

	// The snapshot stamps: Seq strictly increases, and the per-block
	// copies match the top-level one.
	st2 := srv.Stats()
	if st2.Seq <= st.Seq {
		t.Errorf("Stats().Seq did not advance: %d then %d", st.Seq, st2.Seq)
	}
	if st.QoS["solve"].Seq != st.Seq || st.QoS["ingest"].Seq != st.Seq {
		t.Errorf("QoS Seq %d/%d != snapshot Seq %d",
			st.QoS["solve"].Seq, st.QoS["ingest"].Seq, st.Seq)
	}
	if st.QoS["solve"].Since.IsZero() {
		t.Error("QoS Since is zero")
	}
}

// TestQueryTrace is the tracing acceptance test: a "trace": true
// SketchRefine solve returns a span tree whose root duration matches
// the reported solve time within 5% (the best of three traced solves),
// whose direct children cover at least 90% of it, and whose solve
// subtree shows the sketch → refine structure.
func TestQueryTrace(t *testing.T) {
	_, ts := newObsServer(t, Config{})
	client := ts.Client()

	// Warm the partitioning with an untraced twin first,
	// then trace queries it cannot have cached: each traced execution is
	// a fresh solve against fully warm state, so its root is pure solve.
	warm := QueryRequest{Dataset: "galaxy", Query: obsFeasibleQuery, Method: MethodSketchRefine}
	if status, raw, err := postQuery(client, ts.URL, warm); err != nil || status != http.StatusOK {
		t.Fatalf("warm solve: status %d err %v (%s)", status, err, raw)
	}
	// Three distinct queries (the last constant differs), so none is
	// served from the cache. Four constraints make each a
	// multi-millisecond solve; a sub-millisecond one puts the 5% bound
	// below timer jitter.
	var (
		qr      QueryResponse
		bestRel = math.Inf(1)
		best    string
	)
	for i, rBound := range []int{500, 501, 502} {
		traced := QueryRequest{
			Dataset: "galaxy",
			Query: fmt.Sprintf(`SELECT PACKAGE(G) AS P FROM galaxy G REPEAT 0
SUCH THAT COUNT(P.*) = 25 AND SUM(P.redshift) BETWEEN 11.5 AND 12.0
AND SUM(P.petrorad) >= 200 AND SUM(P.r) <= %d
MINIMIZE SUM(P.i)`, rBound),
			Method: MethodSketchRefine,
			Trace:  true,
		}
		status, raw := mustPostQuery(t, client, ts.URL, traced)
		if status != http.StatusOK {
			t.Fatalf("traced solve %d: status %d (%s)", i, status, raw)
		}
		var r QueryResponse
		if err := json.Unmarshal(raw, &r); err != nil {
			t.Fatal(err)
		}
		if r.Trace == nil {
			t.Fatalf("traced solve %d: trace requested but absent from the response", i)
		}
		if r.Cached {
			t.Fatalf("traced solve %d unexpectedly hit the cache; the timing bound below would be meaningless", i)
		}
		if r.Trace.Name != "execute" {
			t.Fatalf("traced solve %d: root span %q, want execute", i, r.Trace.Name)
		}
		// Root duration vs reported solve time. TimeMS measures the
		// solve alone, the root adds pin + objective + bookkeeping — all
		// microseconds against a multi-millisecond SketchRefine solve.
		if r.TimeMS <= 0 {
			t.Fatalf("traced solve %d: reported time_ms %v not positive", i, r.TimeMS)
		}
		if rel := math.Abs(r.Trace.DurationMS-r.TimeMS) / r.TimeMS; rel < bestRel {
			bestRel = rel
			best = fmt.Sprintf("root span %.3fms vs reported %.3fms", r.Trace.DurationMS, r.TimeMS)
		}
		if i == 0 {
			qr = r
		}
	}
	// Rank-based: one execution descheduled between the solve's end and
	// the root's Finish (a loaded CPU) must not fail the bound, so the
	// best of the three is held to 5%.
	if bestRel > 0.05 {
		t.Errorf("best of three traced solves: %s, off by %.1f%%, want ≤5%%", best, 100*bestRel)
	}
	root := qr.Trace

	// Direct children must account for ≥90% of the root, and for no more
	// than the root: every child is timed inside this execution.
	var childSum float64
	for _, c := range root.Children {
		childSum += c.DurationMS
	}
	if childSum < 0.9*root.DurationMS {
		t.Errorf("children cover %.3fms of the root's %.3fms (<90%%)", childSum, root.DurationMS)
	}
	if childSum > root.DurationMS {
		t.Errorf("children sum to %.3fms, more than the root's %.3fms", childSum, root.DurationMS)
	}
	// Planning happened at Prepare: the root carries it as attributes.
	if _, ok := root.Attrs["plan_ms"].(float64); !ok {
		t.Errorf("root attrs %v lack plan_ms", root.Attrs)
	}
	if from, _ := root.Attrs["base_count"].(string); from != "memo" && from != "scan" {
		t.Errorf("root attrs %v lack base_count", root.Attrs)
	}
	if _, ok := root.Attrs["plan_reason"].(string); !ok {
		t.Errorf("root attrs %v lack plan_reason", root.Attrs)
	}

	// Structure: the paper's pipeline must be visible in the tree.
	names := map[string]int{}
	var walk func(n *paq.TraceNode)
	walk = func(n *paq.TraceNode) {
		names[n.Name]++
		for _, c := range n.Children {
			walk(c)
		}
	}
	walk(root)
	if names["plan"] != 0 {
		t.Errorf("a plan span is timed under the root (have %v)", names)
	}
	for _, want := range []string{"pin", "solve", "sketch", "refine", "refine_group", "ilp", "objective"} {
		if names[want] == 0 {
			t.Errorf("span %q missing from the trace (have %v)", want, names)
		}
	}
	if root.Attrs["method"] != MethodSketchRefine {
		t.Errorf("root method attr = %v, want %s", root.Attrs["method"], MethodSketchRefine)
	}

	// An untraced request must not carry a tree.
	status, raw := mustPostQuery(t, client, ts.URL, QueryRequest{
		Dataset: "galaxy", Query: obsFeasibleQuery, Method: MethodDirect,
	})
	if status != http.StatusOK {
		t.Fatalf("untraced solve: status %d (%s)", status, raw)
	}
	var plain QueryResponse
	if err := json.Unmarshal(raw, &plain); err != nil {
		t.Fatal(err)
	}
	if plain.Trace != nil {
		t.Error("untraced request returned a span tree")
	}
}

// TestSlowQueryLog exercises the slow-query log end to end: with a
// 1ns threshold every solve is slow, and each line must be standalone
// JSON carrying the query, plan, dataset version, and span tree.
func TestSlowQueryLog(t *testing.T) {
	var buf bytes.Buffer
	_, ts := newObsServer(t, Config{SlowQuery: time.Nanosecond, SlowQueryLog: &buf})
	client := ts.Client()
	status, raw := mustPostQuery(t, client, ts.URL, QueryRequest{
		Dataset: "galaxy", Query: obsFeasibleQuery, Method: MethodSketchRefine,
	})
	if status != http.StatusOK {
		t.Fatalf("solve: status %d (%s)", status, raw)
	}

	line := strings.TrimSpace(buf.String())
	if line == "" {
		t.Fatal("slow log empty after a slow solve")
	}
	var entry struct {
		TS         time.Time       `json:"ts"`
		Dataset    string          `json:"dataset"`
		Query      string          `json:"query"`
		Method     string          `json:"method"`
		DurationMS float64         `json:"duration_ms"`
		Version    uint64          `json:"version"`
		Plan       json.RawMessage `json:"plan"`
		Trace      *paq.TraceNode  `json:"trace"`
	}
	if err := json.Unmarshal([]byte(line), &entry); err != nil {
		t.Fatalf("slow-log line not JSON: %v\n%s", err, line)
	}
	if entry.Dataset != "galaxy" || entry.Method != MethodSketchRefine {
		t.Errorf("entry identifies %q/%q, want galaxy/sketchrefine", entry.Dataset, entry.Method)
	}
	if entry.Query != obsFeasibleQuery {
		t.Errorf("entry query %q, want the posted text", entry.Query)
	}
	if entry.DurationMS <= 0 || entry.TS.IsZero() {
		t.Errorf("entry lacks timing: duration %v ts %v", entry.DurationMS, entry.TS)
	}
	if len(entry.Plan) == 0 || string(entry.Plan) == "null" {
		t.Error("entry lacks the plan")
	}
	if entry.Trace == nil || entry.Trace.Name != "execute" {
		t.Errorf("entry lacks the span tree (got %+v)", entry.Trace)
	}

	// The threshold gates the log: an explain request never solves, so
	// it must not log.
	buf.Reset()
	if _, _, err := postQuery(client, ts.URL, QueryRequest{
		Dataset: "galaxy", Query: obsFeasibleQuery, Explain: true,
	}); err != nil {
		t.Fatal(err)
	}
	if buf.Len() != 0 {
		t.Errorf("explain request wrote a slow-log line: %s", buf.String())
	}
}

// traceNames counts the spans of a tree by name.
func traceNames(n *paq.TraceNode, into map[string]int) map[string]int {
	into[n.Name]++
	for _, c := range n.Children {
		traceNames(c, into)
	}
	return into
}

// TestTracedFailureResponds: a traced execution that fails keeps its span
// tree in the response. An infeasible verdict (200) carries the tree of
// the solve that proved it; a timed-out one (504) carries it in the error
// body, with the error on the root.
func TestTracedFailureResponds(t *testing.T) {
	_, ts := newObsServer(t, Config{})
	status, raw := mustPostQuery(t, ts.Client(), ts.URL, QueryRequest{
		Dataset: "galaxy", Query: obsInfeasibleQuery, Method: MethodDirect, Trace: true,
	})
	var qr QueryResponse
	if err := json.Unmarshal(raw, &qr); err != nil || status != http.StatusOK || !qr.Infeasible {
		t.Fatalf("infeasible query: status %d err %v (%s)", status, err, raw)
	}
	if qr.Trace == nil || qr.Trace.Name != "execute" {
		t.Fatalf("infeasible traced query returned trace %+v", qr.Trace)
	}
	names := traceNames(qr.Trace, map[string]int{})
	for _, want := range []string{"execute", "pin", "solve"} {
		if names[want] == 0 {
			t.Errorf("span %q missing from the infeasible query's trace (have %v)", want, names)
		}
	}

	_, slow := newObsServer(t, Config{DefaultTimeout: time.Nanosecond})
	status, raw = mustPostQuery(t, slow.Client(), slow.URL, QueryRequest{
		Dataset: "galaxy", Query: obsFeasibleQuery, Method: MethodDirect, Trace: true,
	})
	var er errorResponse
	if err := json.Unmarshal(raw, &er); err != nil || status != http.StatusGatewayTimeout {
		t.Fatalf("timed-out query: status %d err %v (%s)", status, err, raw)
	}
	if er.Trace == nil || er.Trace.Name != "execute" || er.Trace.Attrs["error"] == nil {
		t.Fatalf("timed-out traced query returned trace %+v", er.Trace)
	}
	if names := traceNames(er.Trace, map[string]int{}); names["solve"] == 0 {
		t.Errorf("the timed-out query's trace has no solve span (have %v)", names)
	}

	// Untraced, a failure carries no tree.
	status, raw = mustPostQuery(t, slow.Client(), slow.URL, QueryRequest{
		Dataset: "galaxy", Query: obsFeasibleQuery, Method: MethodDirect,
	})
	if status != http.StatusGatewayTimeout || strings.Contains(string(raw), `"trace"`) {
		t.Fatalf("untraced timed-out query: status %d body %s", status, raw)
	}
}

// TestSlowQueryLogRecordsFailures: a failed execution over the slow-log
// threshold is logged like a slow answer, with its error and span tree.
func TestSlowQueryLogRecordsFailures(t *testing.T) {
	var buf bytes.Buffer
	_, ts := newObsServer(t, Config{SlowQuery: time.Nanosecond, SlowQueryLog: &buf, DefaultTimeout: time.Nanosecond})
	status, raw := mustPostQuery(t, ts.Client(), ts.URL, QueryRequest{
		Dataset: "galaxy", Query: obsFeasibleQuery, Method: MethodDirect,
	})
	if status != http.StatusGatewayTimeout {
		t.Fatalf("solve: status %d (%s), want a timeout", status, raw)
	}
	line := strings.TrimSpace(buf.String())
	if line == "" {
		t.Fatal("no slow-log line for a timed-out query")
	}
	var entry obs.SlowEntry
	if err := json.Unmarshal([]byte(line), &entry); err != nil {
		t.Fatalf("slow-log line not JSON: %v\n%s", err, line)
	}
	if entry.Error == "" || entry.Query != obsFeasibleQuery || entry.Method != MethodDirect {
		t.Errorf("entry %+v lacks the error or the request", entry)
	}
	if entry.DurationMS <= 0 || entry.Trace == nil || entry.Trace.Name != "execute" {
		t.Errorf("entry lacks its timing or span tree: duration %v trace %+v", entry.DurationMS, entry.Trace)
	}
}
