package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"runtime"
	"strconv"
	"sync"
	"time"

	"repro/internal/server"
	"repro/paq"
)

// harness is an in-process paqld: the server package's handler behind
// net/http on a loopback port.
type harness struct {
	srv    *server.Server
	hs     *http.Server
	url    string
	served chan struct{} // closed when Serve has returned
}

func startServer(srv *server.Server) (*harness, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	h := &harness{
		srv:    srv,
		hs:     &http.Server{Handler: srv.Handler()},
		url:    "http://" + ln.Addr().String(),
		served: make(chan struct{}),
	}
	go func() {
		defer close(h.served)
		_ = h.hs.Serve(ln) // returns ErrServerClosed on stop
	}()
	return h, nil
}

// startServerFromSession serves an existing session as dataset
// "galaxy".
func startServerFromSession(sess *paq.Session) (*harness, error) {
	ds, err := server.NewDatasetFromSession("galaxy", sess)
	if err != nil {
		return nil, err
	}
	srv := server.New(server.Config{})
	srv.Register(ds)
	return startServer(srv)
}

// stop closes the listener and every connection and waits for the
// serving goroutine.
func (h *harness) stop() {
	_ = h.hs.Close()
	<-h.served
}

// client is one closed-loop caller with one keep-alive connection.
type client struct {
	hc  *http.Client
	tr  *http.Transport
	url string
}

func newClient(base string) *client {
	tr := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}
	return &client{hc: &http.Client{Transport: tr}, tr: tr, url: base + "/query"}
}

func (c *client) close() { c.tr.CloseIdleConnections() }

// post sends one request body and reads the whole response.
func (c *client) post(ctx context.Context, body []byte) (int, []byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.url, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	return resp.StatusCode, data, err
}

// queryBody is the /query request for a SketchRefine evaluation (or an
// explain) of a PaQL text.
func queryBody(paql string, explain, trace bool) []byte {
	// A struct of strings and booleans always marshals.
	b, _ := json.Marshal(server.QueryRequest{
		Dataset: "galaxy", Query: paql, Method: server.MethodSketchRefine,
		Explain: explain, Trace: trace,
	})
	return b
}

// query posts one query and fails on any status but 200.
func (c *client) query(ctx context.Context, paql string, explain bool) ([]byte, error) {
	status, body, err := c.post(ctx, queryBody(paql, explain, false))
	if err != nil {
		return nil, err
	}
	if status != http.StatusOK {
		return nil, fmt.Errorf("HTTP %d: %s", status, body)
	}
	return body, nil
}

// serveClients is the number of closed-loop clients of the serve
// workload, one keep-alive connection each. serveStratum is the run of
// consecutive requests of one client that holds exactly the workload's
// mix.
const (
	serveClients = 2
	serveStratum = 20
)

// Request kinds of the serve traffic.
const (
	reqPool    = iota // a pool query: a cache hit after first touch
	reqFresh          // a never-seen variant: a guaranteed miss, a real solve
	reqExplain        // "explain": true on a pool query: Prepare, no solve
)

// request is one generated request and, after the phase, its outcome.
type request struct {
	kind int
	q    query
	pool int // pool index (reqPool, reqExplain)
	body []byte

	status  int
	resp    []byte
	err     error
	latency time.Duration
	ok      bool // answered 200; after checkResponse: and passed its checks
	op      int  // traced runs: the request's operation id and span
	span    *open
}

// serveTraffic draws one client's request list. Every stratum of
// serveStratum requests holds, in a seeded order, 75 % pool queries
// drawn Zipf(1.1) over the pool, 15 % never-seen variants of the serve
// templates and 10 % explains of Zipf-drawn pool queries, so that equal
// runs of requests are equal work up to what the variants cost.
func serveTraffic(m colMeans, pool []query, n int, seed int64, client int, trace bool) []request {
	rng := rand.New(rand.NewSource(seed*7919 + int64(client)))
	zipf := rand.NewZipf(rng, 1.1, 1, uint64(len(pool)-1))
	kinds := make([]int, serveStratum)
	for i := range kinds {
		switch {
		case i < serveStratum*75/100:
			kinds[i] = reqPool
		case i < serveStratum*90/100:
			kinds[i] = reqFresh
		default:
			kinds[i] = reqExplain
		}
	}
	reqs := make([]request, n)
	fresh := 0
	for i := range reqs {
		if i%serveStratum == 0 {
			rng.Shuffle(len(kinds), func(a, b int) { kinds[a], kinds[b] = kinds[b], kinds[a] })
		}
		r := &reqs[i]
		r.kind = kinds[i%serveStratum]
		if r.kind == reqFresh {
			t := serveTemplates[rng.Intn(len(serveTemplates))]
			r.q = variant(m, t, rng, fmt.Sprintf("Q%d.c%d.f%d", t+1, client, fresh))
			fresh++
		} else {
			r.pool = int(zipf.Uint64())
			r.q = pool[r.pool]
		}
		r.body = queryBody(r.q.paql, r.kind == reqExplain, trace && r.kind != reqExplain)
	}
	return reqs
}

// clientBlocks cuts each client's list into blocks of `per`
// consecutive requests.
func clientBlocks(lists [][]request, per int) [][]block {
	out := make([][]block, len(lists))
	for c, reqs := range lists {
		out[c] = make([]block, (len(reqs)+per-1)/per)
		for i := range reqs {
			b := &out[c][i/per]
			b.wall += reqs[i].latency
			if reqs[i].ok {
				b.ok = append(b.ok, reqs[i].latency)
			}
		}
	}
	return out
}

// clientRate adds the clients' median block rates: the phase's
// throughput.
func clientRate(clients [][]block) float64 {
	total := 0.0
	for _, blocks := range clients {
		total += blockRate(false, blocks)
	}
	return total
}

// servePhase runs the clients' request lists concurrently, each client
// a closed loop on its own connection. With meter, the first client's
// blocks bracket the process's memory metric.
func (e *env) servePhase(ctx context.Context, url string, lists [][]request, rec *recorder, meter bool) {
	var wg sync.WaitGroup
	for c := range lists {
		wg.Add(1)
		go func(reqs []request, meter bool) {
			defer wg.Done()
			cl := newClient(url)
			defer cl.close()
			for i := range reqs {
				if meter && i%e.sz.ServeBlock == 0 {
					if i > 0 {
						e.blockEnd()
					}
					e.blockStart()
				}
				r := &reqs[i]
				if ctx.Err() != nil {
					r.err = ctx.Err()
					continue
				}
				r.op = rec.newOp()
				r.span = rec.begin(nil, r.op, "server.query")
				t0 := time.Now()
				r.status, r.resp, r.err = cl.post(ctx, r.body)
				r.latency = time.Since(t0)
				r.span.end()
				r.ok = r.err == nil && r.status == http.StatusOK
			}
			if meter {
				e.blockEnd()
			}
		}(lists[c], meter && c == 0)
	}
	wg.Wait()
}

// runServe is the serve workload.
func (e *env) runServe(ctx context.Context) error {
	if err := e.makeInputs(e.sz.TableRows); err != nil {
		return err
	}
	if err := e.references(ctx); err != nil {
		return err
	}
	// The pool is part of the frozen instance: the seven templates, then
	// variants of the serve templates.
	poolRng := rand.New(rand.NewSource(tableSeed*104729 + 1))
	pool := append([]query(nil), e.queries...)
	for i := len(pool); i < e.sz.ServePool; i++ {
		t := serveTemplates[i%len(serveTemplates)]
		pool = append(pool, variant(e.means, t, poolRng, fmt.Sprintf("Q%d.p%d", t+1, i)))
	}

	// Set-up: dataset registration (partition build) and the listener.
	dcfg := server.DatasetConfig{
		Attrs: galaxyAttrs, TauFrac: tauFrac, Workers: workers(),
		TimeLimit: timeLimit, MaxNodes: nodeLimit, Gap: gap,
		Seed: refineSeed, Racers: 1,
	}
	var setupTimes []time.Duration
	setUp := func() (*harness, *server.Dataset, error) {
		t0 := time.Now()
		srv := server.New(server.Config{})
		d, err := server.NewDataset("galaxy", e.rel, dcfg)
		if err != nil {
			return nil, nil, fmt.Errorf("set-up: %w", err)
		}
		srv.Register(d)
		h, err := startServer(srv)
		if err != nil {
			return nil, nil, fmt.Errorf("set-up: %w", err)
		}
		setupTimes = append(setupTimes, time.Since(t0))
		return h, d, nil
	}
	before, after := splitSetups(e.sz.Setups)
	var h *harness
	var ds *server.Dataset
	for k := 0; k < before; k++ {
		if h != nil {
			h.stop()
		}
		var err error
		if h, ds, err = setUp(); err != nil {
			return err
		}
	}
	defer h.stop()

	// Reference: every pool query evaluated in-process on a clone of the
	// dataset's session (same partitioning, fresh caches).
	t0 := time.Now()
	ref, err := ds.Session().Clone()
	if err != nil {
		return fmt.Errorf("reference session: %w", err)
	}
	want := make([]string, len(pool))
	var gaps []float64
	for i, q := range pool {
		st, err := ref.Prepare(q.paql, paq.WithMethod(paq.MethodSketchRefine))
		if err != nil {
			return fmt.Errorf("reference %s: %w", q.name, err)
		}
		r, err := st.Execute(ctx)
		if err != nil {
			return fmt.Errorf("reference %s: %w", q.name, err)
		}
		want[i] = strconv.FormatFloat(r.Objective, 'g', -1, 64)
		if i < len(e.queries) {
			gaps = append(gaps, relGap(r.Objective, e.zLP[i]))
		}
	}
	e.reference += time.Since(t0)

	const clients = serveClients
	n := e.sz.ServeRequests
	if e.rec != nil {
		const unit = clients * serveStratum
		n = max(unit, n/3/unit*unit)
	}
	traffic := func(trace bool) [][]request {
		lists := make([][]request, clients)
		for c := range lists {
			lists[c] = serveTraffic(e.means, pool, n/clients, e.cfg.seed, c, trace)
		}
		return lists
	}
	lists := traffic(false)
	runtime.GC()
	e.servePhase(ctx, h.url, lists, nil, true)

	for _, reqs := range lists {
		for i := range reqs {
			reqs[i].ok = e.checkResponse(&reqs[i], want, ds.Version())
		}
	}
	e.queryMetrics(false, clientBlocks(lists, e.sz.ServeBlock)...)
	// The pool answers equal the reference (checked above), so the
	// templates' gap to the LP bound is the reference's.
	e.res.setN("objective_gap", mean(gaps), "ratio", len(gaps))
	e.memMetric()
	for k := 0; k < after; k++ {
		h2, _, err := setUp()
		if err != nil {
			return err
		}
		h2.stop()
	}
	e.setupMetric(setupTimes)

	stats := h.srv.Stats()
	e.res.set("server.rejected", float64(stats.Rejected), "count")
	e.res.set("server.timeouts", float64(stats.Timeouts), "count")
	e.sessionCounters(ds.Session())

	if e.rec != nil {
		// The traced twin: the same traffic on fresh never-seen texts is
		// not possible (they are cached now), so the twin repeats the lists
		// with "trace": true — every pool query a hit, every variant a hit.
		// The untraced side of the comparison is therefore a second
		// untraced repeat, equally warm.
		warm := traffic(false)
		e.servePhase(ctx, h.url, warm, nil, false)
		traced := traffic(true)
		e.servePhase(ctx, h.url, traced, e.rec, false)
		e.traceOverhead(clientRate(clientBlocks(warm, e.sz.ServeBlock)), clientRate(clientBlocks(traced, e.sz.ServeBlock)))
		for _, reqs := range traced {
			for i := range reqs {
				var resp server.QueryResponse
				if json.Unmarshal(reqs[i].resp, &resp) == nil {
					reqs[i].span.attach(reqs[i].op, resp.Trace)
				}
			}
		}
	}
	return nil
}

// checkResponse accounts one request and checks its response. It
// reports whether the request succeeded.
func (e *env) checkResponse(r *request, want []string, version uint64) bool {
	e.res.attempted++
	if r.err != nil {
		e.res.fail("transport")
		return false
	}
	if r.status != http.StatusOK {
		e.res.fail("http_" + strconv.Itoa(r.status))
		return false
	}
	var resp server.QueryResponse
	if err := json.Unmarshal(r.resp, &resp); err != nil {
		e.res.violate("%s: undecodable response: %v", r.q.name, err)
		return false
	}
	if r.kind == reqExplain {
		if resp.Plan == nil || resp.Plan.Method != paq.MethodSketchRefine {
			e.res.violate("%s: explain returned no SketchRefine plan", r.q.name)
			return false
		}
		return true
	}
	switch {
	case resp.FalseInfeasible:
		e.res.fail("false_infeasible")
		return false
	case resp.Infeasible:
		e.res.fail("infeasible")
		return false
	case resp.Truncated:
		e.res.fail("truncated")
		return false
	}
	if resp.Version != version {
		e.res.violate("%s: answered at version %d, dataset is at %d", r.q.name, resp.Version, version)
		return false
	}
	if r.kind == reqPool && resp.Objective != want[r.pool] {
		e.res.violate("%s: objective %s, in-process reference %s", r.q.name, resp.Objective, want[r.pool])
		return false
	}
	rows, mult := make([]int, len(resp.Rows)), make([]int, len(resp.Rows))
	for i, pr := range resp.Rows {
		rows[i], mult[i] = pr.Row, pr.Mult
	}
	if err := e.checkPackage(e.rel, version, r.q, rows, mult, resp.ObjValue); err != nil {
		e.res.violate("%v", err)
		return false
	}
	return true
}
