package bench

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/server"
	"repro/paq"
)

// LoadGenConfig configures the paqld load generator.
type LoadGenConfig struct {
	// Addr is the base URL of a running paqld (e.g. "http://:8080"). The
	// target must serve the same datasets this Env generates — start it
	// with matching -galaxy/-tpch/-seed/-tau flags — or the differential
	// check will report objective mismatches. Empty starts an in-process
	// paqld on a loopback port.
	Addr string
	// N is the number of concurrent requests; 0 means 64.
	N int
}

// loadTimeoutMS is the per-request deadline sent to the server.
const loadTimeoutMS = 60000

// LoadGenResult summarizes one load-generation run.
type LoadGenResult struct {
	Requests   int
	OK         int
	Infeasible int
	Rejected   int // 429s: admission control shedding load
	Errors     int // transport failures and non-2xx/429 statuses
	Mismatches []string
	Elapsed    time.Duration
	// UntracedP95MS / TracedP95MS are the client-observed p95 request
	// latencies of the paired overhead phases.
	UntracedP95MS float64
	TracedP95MS   float64
	// OverheadRatio is TracedP95MS / UntracedP95MS.
	OverheadRatio float64
}

// loadCase is one (dataset, method, query) combination with its
// in-process ground truth.
type loadCase struct {
	dataset, method, paql string
	infeasible            bool
	objective             string
	// truncated marks a wall-clock-truncated in-process incumbent: its
	// objective depends on machine load, so the differential check skips
	// the byte comparison for this case.
	truncated bool
}

// LoadGen fires N concurrent mixed package queries (direct +
// sketchrefine, feasible + infeasible) at a paqld instance and
// differentially checks every response against in-process paq
// executions over the same datasets. It returns an error when any
// response mismatches the in-process ground truth. The observability
// checks ride along: a mid-run /metrics scrape read back by series key,
// a quiesced /stats vs /metrics consistency check,
// and the tracing-overhead gate (a traced request, paired with an
// untraced twin over identical warm state, must stay within 5% of it).
func (e *Env) LoadGen(ctx context.Context, cfg LoadGenConfig) (*LoadGenResult, error) {
	if cfg.N <= 0 {
		cfg.N = 64
	}
	dcfg := server.DatasetConfig{
		TauFrac:   e.cfg.TauFrac,
		Workers:   e.cfg.Workers,
		TimeLimit: e.cfg.TimeLimit,
		MaxNodes:  e.cfg.MaxNodes,
		Gap:       e.cfg.Gap,
		Seed:      e.cfg.Seed,
	}

	// In-process ground truth: one server.Dataset per dataset, same
	// configuration a matching paqld builds.
	fmt.Fprintf(e.cfg.Out, "building in-process reference sessions...\n")
	cases, refDS, err := e.buildLoadCases(ctx, dcfg)
	if err != nil {
		return nil, err
	}

	base := cfg.Addr
	if base == "" {
		var stop func()
		base, stop, err = e.startInProcess(refDS)
		if err != nil {
			return nil, err
		}
		defer stop()
		fmt.Fprintf(e.cfg.Out, "started in-process paqld at %s\n", base)
	}

	client := &http.Client{Timeout: loadTimeoutMS*time.Millisecond + 30*time.Second}
	res := &LoadGenResult{Requests: cfg.N}
	var mu sync.Mutex
	var wg sync.WaitGroup
	start := time.Now()
	for i := 0; i < cfg.N; i++ {
		c := cases[i%len(cases)]
		wg.Add(1)
		go func(c loadCase) {
			defer wg.Done()
			verdict := fireOne(ctx, client, base, c)
			mu.Lock()
			defer mu.Unlock()
			switch verdict.kind {
			case "ok":
				res.OK++
			case "infeasible":
				res.Infeasible++
			case "rejected":
				res.Rejected++
			default:
				res.Errors++
			}
			if verdict.mismatch != "" {
				res.Mismatches = append(res.Mismatches, verdict.mismatch)
			}
		}(c)
	}
	// Mid-run scrape: the exposition must read back while the burst is
	// still in flight — collectors snapshot live QoS, cache, and pin
	// state, so this is where a series rendered twice would show.
	_, midScrapeErr := scrapeMetrics(ctx, client, base)
	wg.Wait()
	res.Elapsed = time.Since(start)

	fmt.Fprintf(e.cfg.Out, "loadgen: %d requests in %v (%.1f qps): %d ok, %d infeasible, %d rejected(429), %d errors, %d mismatches\n",
		res.Requests, res.Elapsed.Round(time.Millisecond),
		float64(res.Requests)/res.Elapsed.Seconds(),
		res.OK, res.Infeasible, res.Rejected, res.Errors, len(res.Mismatches))
	for i, m := range res.Mismatches {
		if i == 10 {
			fmt.Fprintf(e.cfg.Out, "  ... and %d more\n", len(res.Mismatches)-10)
			break
		}
		fmt.Fprintf(e.cfg.Out, "  MISMATCH %s\n", m)
	}
	if len(res.Mismatches) > 0 {
		return res, fmt.Errorf("loadgen: %d differential mismatches", len(res.Mismatches))
	}
	if res.Errors > 0 {
		return res, fmt.Errorf("loadgen: %d request errors", res.Errors)
	}
	if midScrapeErr != nil {
		return res, fmt.Errorf("loadgen: mid-run /metrics scrape: %w", midScrapeErr)
	}
	return res, e.obsPhase(ctx, client, base, cases, res)
}

// obsPhase runs the observability checks after the differential burst:
// the tracing-overhead gate over warm state and the quiesced /stats vs
// /metrics cross-check.
func (e *Env) obsPhase(ctx context.Context, client *http.Client, base string, cases []loadCase, res *LoadGenResult) error {
	p95U, p95T, excess, err := traceOverhead(ctx, client, base, cases)
	if err != nil {
		return fmt.Errorf("loadgen: trace overhead phase: %w", err)
	}
	res.UntracedP95MS, res.TracedP95MS = p95U, p95T
	if p95U > 0 {
		res.OverheadRatio = p95T / p95U
	}
	fmt.Fprintf(e.cfg.Out, "trace overhead: p95 untraced %.3fms, traced %.3fms (ratio %.3f); p95 pair %+.3fms against the gate\n",
		p95U, p95T, res.OverheadRatio, excess)
	// Quiesced now: the JSON block and the exposition render the same
	// registry cells, so the shared counters must agree exactly.
	if err := checkStatsMetricsConsistency(ctx, client, base); err != nil {
		return fmt.Errorf("loadgen: /stats vs /metrics: %w", err)
	}
	// The gate: tracing may cost at most 5%, plus 1ms of slack for
	// scheduler jitter on sub-millisecond cache-hit requests, where 5% is
	// tens of microseconds. It is judged at the tail, but pair by pair:
	// each traced request against its untraced twin, at the p95 of the
	// per-pair excess. The two sides' own p95s are single order statistics
	// of a few dozen samples each, which one stall on one side moves apart
	// on a busy host; the p95 pair of at least 40 lets two such stalls go.
	if excess > 0 {
		return fmt.Errorf("loadgen: tracing overhead gate failed: at the p95 pair the traced request is %.3fms over 1.05 × its untraced twin + 1ms (p95 untraced %.3fms, traced %.3fms)",
			excess, p95U, p95T)
	}
	return nil
}

// traceOverhead measures the end-to-end cost of tracing. After a
// per-case warmup, it replays the corpus for several rounds over
// identical warm state, pairing every untraced request with a traced
// one (order alternating per round to cancel ordering bias), and
// returns the client-observed p95 of each side and the p95 over pairs
// of traced − (1.05 × untraced + 1), in milliseconds.
func traceOverhead(ctx context.Context, client *http.Client, base string, cases []loadCase) (p95Untraced, p95Traced, excess float64, err error) {
	// Warmup: solve every case once so both measured sides hit the same
	// warm caches and partitionings.
	for _, c := range cases {
		if _, err := timedQuery(ctx, client, base, c, false); err != nil {
			return 0, 0, 0, fmt.Errorf("warmup %s/%s: %w", c.dataset, c.method, err)
		}
	}
	rounds := 5
	if rounds*len(cases) < 40 {
		rounds = (40 + len(cases) - 1) / len(cases)
	}
	var untraced, traced []float64
	for r := 0; r < rounds; r++ {
		for _, c := range cases {
			order := []bool{false, true} // untraced first
			if r%2 == 1 {
				order = []bool{true, false}
			}
			for _, withTrace := range order {
				d, err := timedQuery(ctx, client, base, c, withTrace)
				if err != nil {
					return 0, 0, 0, fmt.Errorf("%s/%s (trace=%v): %w", c.dataset, c.method, withTrace, err)
				}
				if withTrace {
					traced = append(traced, d)
				} else {
					untraced = append(untraced, d)
				}
			}
		}
	}
	over := make([]float64, len(traced))
	for i := range traced {
		over[i] = traced[i] - (1.05*untraced[i] + 1)
	}
	return percentile(untraced, 0.95), percentile(traced, 0.95), percentile(over, 0.95), nil
}

// timedQuery fires one query and returns the client-observed wall time
// in milliseconds. A traced feasible request must come back with a
// span tree — a missing tree is an error, not a slow sample.
func timedQuery(ctx context.Context, client *http.Client, base string, c loadCase, withTrace bool) (float64, error) {
	var qr server.QueryResponse
	t0 := time.Now()
	_, err := postJSON(ctx, client, base+"/query", server.QueryRequest{
		Dataset: c.dataset, Query: c.paql, Method: c.method,
		TimeoutMS: loadTimeoutMS, Trace: withTrace,
	}, &qr)
	elapsed := time.Since(t0)
	if err != nil {
		return 0, err
	}
	if withTrace && !qr.Infeasible && qr.Trace == nil {
		return 0, errors.New("traced request returned no span tree")
	}
	return float64(elapsed) / float64(time.Millisecond), nil
}

// scrapeMetrics GETs /metrics and reads it back: each sample's value by
// the series key it was written under (obs.SeriesKey).
func scrapeMetrics(ctx context.Context, client *http.Client, base string) (map[string]float64, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/metrics", nil)
	if err != nil {
		return nil, err
	}
	resp, err := client.Do(req)
	if err != nil {
		return nil, err
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("status %d: %s", resp.StatusCode, raw)
	}
	_, values, err := obs.ReadText(bytes.NewReader(raw))
	if err != nil {
		return nil, fmt.Errorf("exposition does not read back: %w", err)
	}
	return values, nil
}

// checkStatsMetricsConsistency asserts the /stats JSON block and the
// /metrics exposition agree on the shared counters. Both surfaces read
// the same obs.Registry cells; with the generator quiesced any drift
// is a bug, so the comparison is exact.
func checkStatsMetricsConsistency(ctx context.Context, client *http.Client, base string) error {
	values, err := scrapeMetrics(ctx, client, base)
	if err != nil {
		return err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/stats", nil)
	if err != nil {
		return err
	}
	resp, err := client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("/stats status %d", resp.StatusCode)
	}
	var st server.StatsResponse
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return err
	}
	for _, chk := range []struct {
		name string
		want uint64
	}{
		{"paqld_queries_total", st.Queries},
		{"paqld_queries_ok_total", st.OK},
		{"paqld_infeasible_total", st.Infeasible},
		{"paqld_rejected_total", st.Rejected},
		{"paqld_failures_total", st.Failures},
	} {
		got, ok := values[chk.name]
		if !ok {
			return fmt.Errorf("%s missing from /metrics", chk.name)
		}
		if got != float64(chk.want) {
			return fmt.Errorf("%s: /metrics %v, /stats %d", chk.name, got, chk.want)
		}
	}
	for method, n := range st.Methods {
		got, ok := values[obs.SeriesKey("paqld_solves_total", obs.Label{Name: "method", Value: method})]
		if !ok {
			return fmt.Errorf("paqld_solves_total{method=%q} missing from /metrics", method)
		}
		if got != float64(n) {
			return fmt.Errorf("paqld_solves_total{method=%q}: /metrics %v, /stats %d", method, got, n)
		}
	}
	return nil
}

// buildLoadCases compiles the mixed corpus and computes in-process
// ground truth for each case through the datasets' paq sessions. It
// also returns the reference datasets so an in-process target can reuse
// their partitionings (with fresh caches) instead of rebuilding them.
func (e *Env) buildLoadCases(ctx context.Context, dcfg server.DatasetConfig) ([]loadCase, map[Dataset]*server.Dataset, error) {
	infeasiblePaQL := map[Dataset]string{
		Galaxy: `SELECT PACKAGE(G) AS P FROM galaxy G REPEAT 0
SUCH THAT COUNT(P.*) = 3 AND SUM(P.redshift) <= -1
MINIMIZE SUM(P.r)`,
		TPCH: `SELECT PACKAGE(R) AS P FROM tpch R REPEAT 0
SUCH THAT COUNT(P.*) = 4 AND SUM(P.quantity) <= -5
MAXIMIZE SUM(P.totalprice)`,
	}
	var cases []loadCase
	refDS := make(map[Dataset]*server.Dataset, 2)
	for _, ds := range []Dataset{Galaxy, TPCH} {
		rel := e.rels[ds]
		ref, err := server.NewDataset(string(ds), rel, dcfg)
		if err != nil {
			return nil, nil, err
		}
		refDS[ds] = ref
		var paqls []string
		for _, q := range e.feasibleQueries(ds) { // DIRECT-killers would dominate the wall clock
			paqls = append(paqls, q.PaQL)
		}
		paqls = append(paqls, infeasiblePaQL[ds])
		for _, paqlText := range paqls {
			for _, method := range []string{server.MethodDirect, server.MethodSketchRefine} {
				m, err := paq.ParseMethod(method)
				if err != nil {
					return nil, nil, err
				}
				stmt, err := ref.Session().Prepare(paqlText, paq.WithMethod(m))
				if err != nil {
					return nil, nil, fmt.Errorf("loadgen: preparing against %s: %w", ds, err)
				}
				c := loadCase{dataset: string(ds), method: method, paql: paqlText}
				r, execErr := stmt.Execute(ctx)
				switch {
				case execErr == nil:
					c.objective = strconv.FormatFloat(r.Objective, 'g', -1, 64)
					c.truncated = r.Truncated
				case errors.Is(execErr, paq.ErrInfeasible):
					c.infeasible = true
				default:
					return nil, nil, fmt.Errorf("loadgen: in-process %s/%s failed: %w", ds, method, execErr)
				}
				cases = append(cases, c)
			}
		}
	}
	return cases, refDS, nil
}

// startInProcess boots a paqld over the Env's datasets on a loopback
// port and returns its base URL and a stop function. The server's
// datasets are clones of the reference sessions: the partitionings —
// deterministic and immutable, the most expensive warm-up — are shared,
// while the engines and solution caches are fresh, keeping the solve
// paths independent.
func (e *Env) startInProcess(refDS map[Dataset]*server.Dataset) (string, func(), error) {
	// A deep admission queue: the generator's burst should complete and
	// be differentially checked, not shed. (Against a remote paqld the
	// target's own -inflight/-queue bounds apply, and 429s are counted
	// as correct refusals.)
	srv := server.New(server.Config{
		MaxQueued:      4096,
		DefaultTimeout: e.cfg.TimeLimit + time.Minute,
	})
	for _, ds := range []Dataset{Galaxy, TPCH} {
		sess, err := refDS[ds].Session().Clone()
		if err != nil {
			return "", nil, err
		}
		d, err := server.NewDatasetFromSession(string(ds), sess)
		if err != nil {
			return "", nil, err
		}
		srv.Register(d)
	}
	return serve(srv.Handler())
}

// fireVerdict classifies one response.
type fireVerdict struct {
	kind     string // ok | infeasible | rejected | error
	mismatch string
}

func fireOne(ctx context.Context, client *http.Client, base string, c loadCase) fireVerdict {
	var qr server.QueryResponse
	status, err := postJSON(ctx, client, base+"/query", server.QueryRequest{
		Dataset: c.dataset, Query: c.paql, Method: c.method, TimeoutMS: loadTimeoutMS,
	}, &qr)
	if status == http.StatusTooManyRequests {
		// Admission control shedding load: a correct refusal, not a
		// mismatch.
		return fireVerdict{kind: "rejected"}
	}
	if err != nil {
		return fireVerdict{kind: "error", mismatch: fmt.Sprintf("%s/%s: %v", c.dataset, c.method, err)}
	}
	if qr.Infeasible != c.infeasible {
		return fireVerdict{kind: "error", mismatch: fmt.Sprintf("%s/%s: infeasible=%v, in-process %v",
			c.dataset, c.method, qr.Infeasible, c.infeasible)}
	}
	if qr.Infeasible {
		return fireVerdict{kind: "infeasible"}
	}
	if qr.Truncated || c.truncated {
		// A budget-truncated incumbent on either side is wall-clock
		// dependent; the objective comparison would be noise, not a
		// correctness signal.
		return fireVerdict{kind: "ok"}
	}
	if qr.Objective != c.objective {
		return fireVerdict{kind: "ok", mismatch: fmt.Sprintf("%s/%s: objective %q, in-process %q",
			c.dataset, c.method, qr.Objective, c.objective)}
	}
	return fireVerdict{kind: "ok"}
}
