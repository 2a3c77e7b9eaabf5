package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/relation"
	"repro/internal/reltest"
	"repro/internal/workload"
	"repro/paq"
)

// testDatasetConfig is the common configuration: solver budgets
// generous enough that every non-hard workload query solves, bounded
// enough that a runaway query cannot stall CI.
func testDatasetConfig() DatasetConfig {
	return DatasetConfig{
		TauFrac: 0.10, Workers: 0, Seed: 7,
		TimeLimit: 30 * time.Second, MaxNodes: 100000, Gap: 1e-4,
	}
}

// buildCorpus returns the two registered datasets plus a mixed query
// corpus: direct + sketchrefine, feasible + infeasible.
type qcase struct {
	dataset string
	method  string
	paql    string
}

func testRelations(t testing.TB) map[string]*relation.Relation {
	t.Helper()
	return map[string]*relation.Relation{
		"galaxy": workload.Galaxy(500, 3),
		"tpch":   workload.TPCH(500, 3),
	}
}

func buildCorpus(t testing.TB, rels map[string]*relation.Relation) []qcase {
	t.Helper()
	var cases []qcase
	add := func(ds, paql string) {
		for _, m := range []string{MethodDirect, MethodSketchRefine} {
			cases = append(cases, qcase{dataset: ds, method: m, paql: paql})
		}
	}
	gq, err := workload.GalaxyQueries(rels["galaxy"])
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range gq {
		if q.Hard {
			continue // combinatorially hard for branch-and-bound; not a load-test fit
		}
		add("galaxy", q.PaQL)
	}
	tq, err := workload.TPCHQueries(rels["tpch"])
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range tq {
		if q.Hard {
			continue
		}
		add("tpch", q.PaQL)
	}
	// Provably infeasible queries: every redshift/quantity is positive.
	add("galaxy", `SELECT PACKAGE(G) AS P FROM galaxy G REPEAT 0
SUCH THAT COUNT(P.*) = 3 AND SUM(P.redshift) <= -1
MINIMIZE SUM(P.r)`)
	add("tpch", `SELECT PACKAGE(R) AS P FROM tpch R REPEAT 0
SUCH THAT COUNT(P.*) = 4 AND SUM(P.quantity) <= -5
MAXIMIZE SUM(P.totalprice)`)
	return cases
}

// postQuery is used from worker goroutines, so it reports failures as
// errors instead of calling t.Fatal (FailNow must not run off the test
// goroutine).
func postQuery(client *http.Client, url string, req QueryRequest) (status int, raw []byte, err error) {
	body, err := json.Marshal(req)
	if err != nil {
		return 0, nil, err
	}
	resp, err := client.Post(url+"/query", "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	raw, err = io.ReadAll(resp.Body)
	if err != nil {
		return resp.StatusCode, nil, err
	}
	return resp.StatusCode, raw, nil
}

// mustPostQuery is postQuery for the test goroutine itself.
func mustPostQuery(t *testing.T, client *http.Client, url string, req QueryRequest) (int, []byte) {
	t.Helper()
	status, raw, err := postQuery(client, url, req)
	if err != nil {
		t.Fatal(err)
	}
	return status, raw
}

// refResult is the in-process ground truth for one corpus case.
type refResult struct {
	infeasible bool
	objective  string
	// truncated marks a wall-clock-truncated reference incumbent, whose
	// objective is load-dependent and must not be byte-compared.
	truncated bool
}

// TestServerDifferentialLoad is the acceptance load test: ≥64 concurrent
// mixed PaQL queries over two datasets against a running paqld complete
// with zero panics, no 429s (the admission bound is sized for the load),
// and objectives byte-identical to in-process engine.Evaluate results.
func TestServerDifferentialLoad(t *testing.T) {
	rels := testRelations(t)
	cases := buildCorpus(t, rels)

	cfg := testDatasetConfig()
	srv := New(Config{MaxInFlight: 8, MaxQueued: 1000, DefaultTimeout: time.Minute})
	for name, rel := range rels {
		ds, err := NewDataset(name, rel, cfg)
		if err != nil {
			t.Fatal(err)
		}
		srv.Register(ds)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	// Independent in-process reference: fresh datasets (identical config,
	// deterministic partitioning) with their own engines and caches.
	refs := make(map[qcase]refResult)
	refDS := make(map[string]*Dataset)
	for name, rel := range rels {
		ds, err := NewDataset(name, rel, cfg)
		if err != nil {
			t.Fatal(err)
		}
		refDS[name] = ds
	}
	for _, c := range cases {
		if _, ok := refs[c]; ok {
			continue
		}
		m, err := paq.ParseMethod(c.method)
		if err != nil {
			t.Fatal(err)
		}
		stmt, err := refDS[c.dataset].Session().Prepare(c.paql, paq.WithMethod(m))
		if err != nil {
			t.Fatalf("%s/%s: reference prepare: %v", c.dataset, c.method, err)
		}
		res, execErr := stmt.Execute(context.Background())
		if execErr != nil {
			if errors.Is(execErr, paq.ErrInfeasible) {
				refs[c] = refResult{infeasible: true}
				continue
			}
			t.Fatalf("%s/%s: reference evaluation failed: %v", c.dataset, c.method, execErr)
		}
		refs[c] = refResult{
			objective: strconv.FormatFloat(res.Objective, 'g', -1, 64),
			truncated: res.Truncated,
		}
	}

	// Fire the corpus repeatedly until ≥64 concurrent requests are in
	// the air; later rounds exercise the server's solution cache.
	const minRequests = 64
	rounds := (minRequests + len(cases) - 1) / len(cases)
	total := rounds * len(cases)
	if total < minRequests {
		t.Fatalf("corpus too small: %d requests < %d", total, minRequests)
	}
	t.Logf("firing %d concurrent requests (%d cases × %d rounds)", total, len(cases), rounds)

	client := ts.Client()
	client.Timeout = 2 * time.Minute
	var wg sync.WaitGroup
	errCh := make(chan error, total)
	for round := 0; round < rounds; round++ {
		for _, c := range cases {
			wg.Add(1)
			go func(c qcase) {
				defer wg.Done()
				status, raw, err := postQuery(client, ts.URL, QueryRequest{
					Dataset: c.dataset, Query: c.paql, Method: c.method,
				})
				if err != nil {
					errCh <- fmt.Errorf("%s/%s: %v", c.dataset, c.method, err)
					return
				}
				if status != http.StatusOK {
					errCh <- fmt.Errorf("%s/%s: status %d: %s", c.dataset, c.method, status, raw)
					return
				}
				var qr QueryResponse
				if err := json.Unmarshal(raw, &qr); err != nil {
					errCh <- fmt.Errorf("%s/%s: bad response: %v", c.dataset, c.method, err)
					return
				}
				want := refs[c]
				if qr.Infeasible != want.infeasible {
					errCh <- fmt.Errorf("%s/%s: infeasible = %v, reference %v", c.dataset, c.method, qr.Infeasible, want.infeasible)
					return
				}
				if qr.Truncated || want.truncated {
					// Wall-clock-truncated incumbents (possible on a
					// heavily oversubscribed CI box) are load-dependent;
					// byte-comparing them would be flaky, not rigorous.
					return
				}
				if qr.Objective != want.objective {
					errCh <- fmt.Errorf("%s/%s: objective %q differs from in-process %q",
						c.dataset, c.method, qr.Objective, want.objective)
				}
			}(c)
		}
	}
	wg.Wait()
	close(errCh)
	failures := 0
	for err := range errCh {
		failures++
		if failures <= 10 {
			t.Error(err)
		}
	}
	if failures > 10 {
		t.Errorf("... and %d more failures", failures-10)
	}

	st := srv.Stats()
	if st.Queries != uint64(total) {
		t.Errorf("stats.Queries = %d, want %d", st.Queries, total)
	}
	if st.Rejected != 0 {
		t.Errorf("stats.Rejected = %d, want 0 (admission bound sized for the load)", st.Rejected)
	}
	var hits uint64
	for _, ds := range st.Datasets {
		for _, cs := range ds.Caches {
			hits += cs.Hits
		}
	}
	if rounds > 1 && hits == 0 {
		t.Error("no cache hits across repeated rounds; solution cache not shared")
	}
}

// blockingSolver blocks every Solve until released (or the context
// fires), for deterministic admission-control and drain tests.
type blockingSolver struct {
	release chan struct{}
	started chan struct{} // one token per Solve entry
}

func (b *blockingSolver) Solve(ctx context.Context, spec *core.Spec) (*core.Package, *core.EvalStats, error) {
	select {
	case b.started <- struct{}{}:
	default:
	}
	select {
	case <-b.release:
		return nil, &core.EvalStats{}, core.ErrInfeasible
	case <-ctx.Done():
		return nil, &core.EvalStats{}, ctx.Err()
	}
}

// tinyDataset registers a 4-row dataset whose direct engine uses the
// given solver.
func tinyDataset(t *testing.T, srv *Server, solver paq.Solver) string {
	t.Helper()
	rel := relation.New("tiny", reltest.Schema(
		relation.Column{Name: "x", Type: relation.Float},
	))
	for i := 0; i < 4; i++ {
		reltest.Append(rel, relation.F(float64(i+1)))
	}
	ds, err := NewDataset("tiny", rel, testDatasetConfig())
	if err != nil {
		t.Fatal(err)
	}
	// SetSolver turns the method's cache off, so every request reaches
	// the solver (blocking tests depend on it).
	ds.Session().SetSolver(paq.MethodDirect, solver)
	srv.Register(ds)
	return `SELECT PACKAGE(T) AS P FROM tiny T REPEAT 0
SUCH THAT COUNT(P.*) = 2 MAXIMIZE SUM(P.x)`
}

// TestAdmissionControl verifies the bounded in-flight queue: with 1
// solve slot and 1 queue slot, a third concurrent query is refused with
// 429, and the refusal happens immediately (no waiting for the solver).
func TestAdmissionControl(t *testing.T) {
	srv := New(Config{MaxInFlight: 1, MaxQueued: 1, DefaultTimeout: 30 * time.Second})
	solver := &blockingSolver{release: make(chan struct{}), started: make(chan struct{}, 64)}
	paql := tinyDataset(t, srv, solver)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	const n = 8
	statuses := make(chan int, n)
	var wg sync.WaitGroup
	// First occupy the solve slot, so admission counts are deterministic.
	wg.Add(1)
	go func() {
		defer wg.Done()
		status, _, err := postQuery(ts.Client(), ts.URL, QueryRequest{Dataset: "tiny", Query: paql})
		if err != nil {
			status = -1
		}
		statuses <- status
	}()
	select {
	case <-solver.started:
	case <-time.After(10 * time.Second):
		t.Fatal("first query never reached the solver")
	}
	// One more fits in the queue; the rest must be 429.
	for i := 1; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			status, _, err := postQuery(ts.Client(), ts.URL, QueryRequest{Dataset: "tiny", Query: paql})
			if err != nil {
				status = -1
			}
			statuses <- status
		}()
	}
	// All but the queued request get refused without the solver moving.
	deadline := time.After(10 * time.Second)
	rejected := 0
	for rejected < n-2 {
		select {
		case st := <-statuses:
			if st != http.StatusTooManyRequests {
				t.Fatalf("early response status %d, want 429", st)
			}
			rejected++
		case <-deadline:
			t.Fatalf("only %d refusals arrived, want %d", rejected, n-2)
		}
	}
	close(solver.release)
	wg.Wait()
	close(statuses)
	counts := map[int]int{http.StatusTooManyRequests: rejected}
	for st := range statuses {
		counts[st]++
	}
	// 2 admitted (in-flight + queued) complete; the other n-2 are 429.
	if counts[http.StatusTooManyRequests] != n-2 {
		t.Errorf("429s = %d, want %d (counts: %v)", counts[http.StatusTooManyRequests], n-2, counts)
	}
	if got := srv.Stats().Rejected; got != uint64(n-2) {
		t.Errorf("stats.Rejected = %d, want %d", got, n-2)
	}
}

// TestDeadlineMapsToCancellation verifies that timeout_ms reaches the
// solver as context cancellation and surfaces as 504.
func TestDeadlineMapsToCancellation(t *testing.T) {
	srv := New(Config{MaxInFlight: 2, MaxQueued: 2})
	solver := &blockingSolver{release: make(chan struct{}), started: make(chan struct{}, 4)}
	paql := tinyDataset(t, srv, solver)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	status, raw := mustPostQuery(t, ts.Client(), ts.URL, QueryRequest{
		Dataset: "tiny", Query: paql, TimeoutMS: 50,
	})
	if status != http.StatusGatewayTimeout {
		t.Fatalf("status = %d (%s), want 504", status, raw)
	}
	close(solver.release)
}

// TestGracefulShutdown verifies draining: during Shutdown new queries are
// refused with 503 and the call returns only after in-flight solves end.
func TestGracefulShutdown(t *testing.T) {
	srv := New(Config{MaxInFlight: 1, MaxQueued: 1, DefaultTimeout: 30 * time.Second})
	solver := &blockingSolver{release: make(chan struct{}), started: make(chan struct{}, 4)}
	paql := tinyDataset(t, srv, solver)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	inFlight := make(chan int, 1)
	go func() {
		status, _, err := postQuery(ts.Client(), ts.URL, QueryRequest{Dataset: "tiny", Query: paql})
		if err != nil {
			status = -1
		}
		inFlight <- status
	}()
	select {
	case <-solver.started:
	case <-time.After(10 * time.Second):
		t.Fatal("query never reached the solver")
	}

	shutdownDone := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		shutdownDone <- srv.Shutdown(ctx)
	}()
	// Draining: a new query must be refused with 503. A poll that lands
	// before Shutdown flips draining is admitted to the one queue slot
	// behind the blocked solve; the short per-request timeout makes it
	// give up (504) so the loop retries instead of waiting out
	// DefaultTimeout past its own deadline.
	deadline := time.Now().Add(5 * time.Second)
	for {
		status, _ := mustPostQuery(t, ts.Client(), ts.URL, QueryRequest{Dataset: "tiny", Query: paql, TimeoutMS: 50})
		if status == http.StatusServiceUnavailable {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("draining server still admits queries (status %d)", status)
		}
		time.Sleep(10 * time.Millisecond)
	}
	select {
	case err := <-shutdownDone:
		t.Fatalf("Shutdown returned (%v) while a solve was in flight", err)
	case <-time.After(100 * time.Millisecond):
	}
	close(solver.release)
	if err := <-shutdownDone; err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	if st := <-inFlight; st != http.StatusOK {
		t.Fatalf("in-flight query finished with %d, want 200", st)
	}
}

// TestBadInputs verifies that adversarial input surfaces as structured
// errors, never a panic or a hung connection.
func TestBadInputs(t *testing.T) {
	rels := testRelations(t)
	srv := New(Config{})
	ds, err := NewDataset("galaxy", rels["galaxy"], testDatasetConfig())
	if err != nil {
		t.Fatal(err)
	}
	srv.Register(ds)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	post := func(body string) *http.Response {
		resp, err := ts.Client().Post(ts.URL+"/query", "application/json", bytes.NewReader([]byte(body)))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return resp
	}
	tests := []struct {
		name string
		body string
		want int
	}{
		{"malformed json", `{`, http.StatusBadRequest},
		{"unknown field", `{"dataset":"galaxy","query":"x","nope":1}`, http.StatusBadRequest},
		{"empty query", `{"dataset":"galaxy","query":""}`, http.StatusBadRequest},
		{"unknown dataset", `{"dataset":"nope","query":"SELECT PACKAGE(G) AS P FROM galaxy G"}`, http.StatusNotFound},
		{"unknown method", `{"dataset":"galaxy","method":"naive","query":"SELECT PACKAGE(G) AS P FROM galaxy G"}`, http.StatusBadRequest},
		{"parse error", `{"dataset":"galaxy","query":"SELECT GARBAGE"}`, http.StatusBadRequest},
		{"unknown column", `{"dataset":"galaxy","query":"SELECT PACKAGE(G) AS P FROM galaxy G SUCH THAT SUM(P.nope) <= 1"}`, http.StatusBadRequest},
		{"wrong relation", `{"dataset":"galaxy","query":"SELECT PACKAGE(X) AS P FROM other X SUCH THAT COUNT(P.*) = 1"}`, http.StatusBadRequest},
		{"or in such that", `{"dataset":"galaxy","query":"SELECT PACKAGE(G) AS P FROM galaxy G SUCH THAT COUNT(P.*) = 1 OR COUNT(P.*) = 2"}`, http.StatusBadRequest},
	}
	for _, tc := range tests {
		if resp := post(tc.body); resp.StatusCode != tc.want {
			t.Errorf("%s: status %d, want %d", tc.name, resp.StatusCode, tc.want)
		}
	}
	// GET endpoints stay healthy afterwards.
	for _, path := range []string{"/stats", "/datasets", "/healthz"} {
		resp, err := ts.Client().Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Errorf("GET %s: status %d", path, resp.StatusCode)
		}
	}
	if got := srv.Stats().BadRequests; got == 0 {
		t.Error("bad requests not counted")
	}
}

// TestIncludeTuples exercises the tuple materialization path.
func TestIncludeTuples(t *testing.T) {
	rels := testRelations(t)
	srv := New(Config{})
	ds, err := NewDataset("galaxy", rels["galaxy"], testDatasetConfig())
	if err != nil {
		t.Fatal(err)
	}
	srv.Register(ds)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	status, raw := mustPostQuery(t, ts.Client(), ts.URL, QueryRequest{
		Dataset: "galaxy",
		Query: `SELECT PACKAGE(G) AS P FROM galaxy G REPEAT 0
SUCH THAT COUNT(P.*) = 2 MINIMIZE SUM(P.r)`,
		IncludeTuples: true,
	})
	if status != http.StatusOK {
		t.Fatalf("status %d: %s", status, raw)
	}
	var qr QueryResponse
	if err := json.Unmarshal(raw, &qr); err != nil {
		t.Fatal(err)
	}
	if qr.Size != 2 || len(qr.Tuples) != 2 {
		t.Fatalf("size %d, tuples %d, want 2/2", qr.Size, len(qr.Tuples))
	}
	if len(qr.Tuples[0]) != rels["galaxy"].Schema().Len() {
		t.Fatalf("tuple width %d, want %d", len(qr.Tuples[0]), rels["galaxy"].Schema().Len())
	}
}

// TestExplainRequest: "explain": true returns the statement's typed
// plan — method, reason, ILP size, partitioning shape — without
// consuming a solve.
func TestExplainRequest(t *testing.T) {
	rels := testRelations(t)
	srv := New(Config{})
	ds, err := NewDataset("galaxy", rels["galaxy"], testDatasetConfig())
	if err != nil {
		t.Fatal(err)
	}
	srv.Register(ds)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	status, raw := mustPostQuery(t, ts.Client(), ts.URL, QueryRequest{
		Dataset: "galaxy",
		Method:  MethodSketchRefine,
		Explain: true,
		Query: `SELECT PACKAGE(G) AS P FROM galaxy G REPEAT 0
SUCH THAT COUNT(P.*) = 2 MINIMIZE SUM(P.r)`,
	})
	if status != http.StatusOK {
		t.Fatalf("status %d: %s", status, raw)
	}
	var qr QueryResponse
	if err := json.Unmarshal(raw, &qr); err != nil {
		t.Fatal(err)
	}
	if qr.Plan == nil {
		t.Fatal("explain response has no plan")
	}
	if qr.Plan.Method != paq.MethodSketchRefine {
		t.Errorf("plan method %q, want sketchrefine", qr.Plan.Method)
	}
	if qr.Plan.Variables == 0 || qr.Plan.Constraints == 0 {
		t.Errorf("plan has empty ILP size: %+v", qr.Plan)
	}
	if qr.Plan.Partitioning == nil || qr.Plan.Partitioning.Groups == 0 {
		t.Errorf("sketchrefine plan lacks partitioning info: %+v", qr.Plan)
	}
	if qr.Rows != nil || qr.Objective != "" {
		t.Error("explain response carries solve results")
	}
	st := srv.Stats()
	if st.Explains != 1 {
		t.Errorf("stats.Explains = %d, want 1", st.Explains)
	}
	if st.OK != 0 {
		t.Errorf("explain counted as a solved query (ok=%d)", st.OK)
	}
}

// TestIncumbentCountSurfaced: executions count their improving ILP
// incumbents, per response and in aggregate at /stats.
func TestIncumbentCountSurfaced(t *testing.T) {
	rels := testRelations(t)
	srv := New(Config{})
	ds, err := NewDataset("galaxy", rels["galaxy"], testDatasetConfig())
	if err != nil {
		t.Fatal(err)
	}
	srv.Register(ds)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	status, raw := mustPostQuery(t, ts.Client(), ts.URL, QueryRequest{
		Dataset: "galaxy",
		Query: `SELECT PACKAGE(G) AS P FROM galaxy G REPEAT 0
SUCH THAT COUNT(P.*) = 3 AND SUM(P.redshift) <= 2.0
MAXIMIZE SUM(P.petrorad)`,
	})
	if status != http.StatusOK {
		t.Fatalf("status %d: %s", status, raw)
	}
	var qr QueryResponse
	if err := json.Unmarshal(raw, &qr); err != nil {
		t.Fatal(err)
	}
	if qr.Incumbents == 0 {
		t.Error("response reports zero incumbents for a fresh solve")
	}
	st := srv.Stats()
	if st.Incumbents == 0 {
		t.Error("/stats incumbents_total is zero after a solve")
	}
	if st.Incumbents != uint64(qr.Incumbents) {
		t.Errorf("/stats incumbents_total = %d, response reported %d", st.Incumbents, qr.Incumbents)
	}
}

// TestWarmSetsExposed: warm partitionings are observable at /stats.
func TestWarmSetsExposed(t *testing.T) {
	srv := New(Config{})
	ds, err := NewDataset("galaxy", workload.Galaxy(500, 3), testDatasetConfig())
	if err != nil {
		t.Fatal(err)
	}
	srv.Register(ds)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	q := `SELECT PACKAGE(G) AS P FROM galaxy G REPEAT 0
SUCH THAT COUNT(P.*) = 2 MAXIMIZE SUM(P.r)`
	for i := 0; i < 3; i++ {
		status, raw := mustPostQuery(t, ts.Client(), ts.URL, QueryRequest{Dataset: "galaxy", Query: q, Method: "auto"})
		if status != http.StatusOK {
			t.Fatalf("query %d: status %d: %s", i, status, raw)
		}
	}
	resp, err := ts.Client().Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	var st StatsResponse
	if err := json.Unmarshal(raw, &st); err != nil {
		t.Fatal(err)
	}
	dst, ok := st.Datasets["galaxy"]
	if !ok {
		t.Fatalf("no galaxy dataset in /stats: %s", raw)
	}
	if len(dst.WarmSets) == 0 {
		t.Fatal("/stats reports no warm_sets")
	}
	for _, ws := range dst.WarmSets {
		if len(ws.Attrs) == 0 || ws.Groups == 0 {
			t.Errorf("warm set %+v: want its attributes and groups", ws)
		}
	}
	for _, field := range []string{`"warm_sets"`, `"groups"`} {
		if !bytes.Contains(raw, []byte(field)) {
			t.Errorf("/stats JSON is missing %s", field)
		}
	}
}
