package server

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"

	"repro/internal/relation"
	"repro/internal/workload"
)

// postJSON posts a raw JSON body and returns status + body.
func postJSON(t *testing.T, client *http.Client, url string, body any) (int, []byte) {
	t.Helper()
	raw, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := client.Post(url, "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, out
}

// galaxyRowJSON renders one galaxy tuple as the wire form of an insert.
func galaxyRowJSON(objid int64, vals ...float64) []any {
	row := []any{objid}
	for _, v := range vals {
		row = append(row, v)
	}
	return row
}

func TestMutateEndpoint(t *testing.T) {
	srv := New(Config{})
	ds, err := NewDataset("galaxy", workload.Galaxy(400, 3), testDatasetConfig())
	if err != nil {
		t.Fatal(err)
	}
	srv.Register(ds)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	client := ts.Client()
	mutURL := ts.URL + "/datasets/galaxy/rows"

	v0 := ds.Version()

	// Insert two rows (galaxy schema: objid + 10 float attrs).
	ins := MutateRequest{Insert: [][]any{
		galaxyRowJSON(9001, 10, 20, 18, 17.5, 17, 16.8, 16.5, 0.8, 9.5, 16.9),
		galaxyRowJSON(9002, 11, 21, 18.2, 17.6, 17.1, 16.9, 16.6, 0.9, 9.6, 17.0),
	}}
	status, raw := postJSON(t, client, mutURL, ins)
	if status != http.StatusOK {
		t.Fatalf("insert: status %d: %s", status, raw)
	}
	var mr MutateResponse
	if err := json.Unmarshal(raw, &mr); err != nil {
		t.Fatal(err)
	}
	if mr.Inserted != 2 || len(mr.InsertedRows) != 2 {
		t.Fatalf("insert response %+v", mr)
	}
	if mr.Version <= v0 {
		t.Fatalf("version did not advance: %d -> %d", v0, mr.Version)
	}
	if mr.Maintenance.Inserts != 2 {
		t.Fatalf("maintenance counters %+v, want 2 inserts", mr.Maintenance)
	}

	// Delete one of them and update the other, in one batch.
	upd := MutateRequest{
		Delete: []int{mr.InsertedRows[0]},
		Update: []UpdateRow{{
			Row:    mr.InsertedRows[1],
			Values: galaxyRowJSON(9002, 12, 22, 18.3, 17.7, 17.2, 17.0, 16.7, 1.0, 9.7, 17.1),
		}},
	}
	status, raw = postJSON(t, client, mutURL, upd)
	if status != http.StatusOK {
		t.Fatalf("delete+update: status %d: %s", status, raw)
	}
	var mr2 MutateResponse
	if err := json.Unmarshal(raw, &mr2); err != nil {
		t.Fatal(err)
	}
	if mr2.Deleted != 1 || mr2.Updated != 1 || mr2.Version <= mr.Version {
		t.Fatalf("delete+update response %+v", mr2)
	}

	// The inserted-then-updated tuple is queryable: its objid is unique.
	qStatus, qRaw := mustPostQuery(t, client, ts.URL, QueryRequest{
		Dataset: "galaxy",
		Method:  MethodDirect,
		Query: `SELECT PACKAGE(G) AS P FROM galaxy G REPEAT 0
WHERE G.objid = 9002
SUCH THAT COUNT(P.*) = 1
MAXIMIZE SUM(P.petrorad)`,
	})
	if qStatus != http.StatusOK {
		t.Fatalf("query: status %d: %s", qStatus, qRaw)
	}
	var qr QueryResponse
	if err := json.Unmarshal(qRaw, &qr); err != nil {
		t.Fatal(err)
	}
	if qr.Infeasible || len(qr.Rows) != 1 || qr.Rows[0].Row != mr.InsertedRows[1] {
		t.Fatalf("query after mutation: %s", qRaw)
	}
	if qr.Objective != "9.7" {
		t.Fatalf("updated tuple not visible: objective %s, want 9.7", qr.Objective)
	}

	// /stats surfaces versions, maintenance, and mutation counters.
	resp, err := client.Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st StatsResponse
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.Mutations != 2 || st.RowsInserted != 2 || st.RowsDeleted != 1 || st.RowsUpdated != 1 {
		t.Fatalf("stats counters: %+v", st)
	}
	dst := st.Datasets["galaxy"]
	if dst.Version != mr2.Version {
		t.Fatalf("stats dataset version %d, want %d", dst.Version, mr2.Version)
	}
	if dst.Maintenance.Inserts != 2 || dst.Maintenance.Deletes != 1 || dst.Maintenance.Updates != 1 {
		t.Fatalf("stats maintenance: %+v", dst.Maintenance)
	}
	if dst.Rows != 401 { // 400 + 2 inserted - 1 deleted
		t.Fatalf("stats live rows %d, want 401", dst.Rows)
	}
}

func TestMutateEndpointRejectsBadBatches(t *testing.T) {
	srv := New(Config{})
	ds, err := NewDataset("galaxy", workload.Galaxy(100, 3), testDatasetConfig())
	if err != nil {
		t.Fatal(err)
	}
	srv.Register(ds)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	client := ts.Client()
	mutURL := ts.URL + "/datasets/galaxy/rows"
	v0 := ds.Version()

	cases := []struct {
		name string
		body any
		want int
	}{
		{"unknown dataset", MutateRequest{Delete: []int{0}}, http.StatusNotFound},
		{"empty batch", MutateRequest{}, http.StatusBadRequest},
		{"wrong arity", MutateRequest{Insert: [][]any{{1.0, 2.0}}}, http.StatusBadRequest},
		{"string in float column", MutateRequest{Insert: [][]any{
			galaxyRowJSON(1, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10)[:10], // truncated → arity error too
		}}, http.StatusBadRequest},
		{"non-integral objid", MutateRequest{Insert: [][]any{
			append([]any{1.5}, galaxyRowJSON(1, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10)[1:]...),
		}}, http.StatusBadRequest},
		{"out-of-range delete", MutateRequest{Delete: []int{10_000}}, http.StatusBadRequest},
		{"duplicate delete", MutateRequest{Delete: []int{3, 3}}, http.StatusBadRequest},
		{"update of unknown row", MutateRequest{Update: []UpdateRow{{
			Row: 10_000, Values: galaxyRowJSON(1, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10),
		}}}, http.StatusBadRequest},
		{"malformed json", "insert: nope", http.StatusBadRequest},
	}
	for _, tc := range cases {
		url := mutURL
		if tc.name == "unknown dataset" {
			url = ts.URL + "/datasets/nope/rows"
		}
		status, raw := postJSON(t, client, url, tc.body)
		if status != tc.want {
			t.Errorf("%s: status %d (want %d): %s", tc.name, status, tc.want, raw)
		}
	}
	// GET on the mutation route is not a thing.
	resp, err := client.Get(mutURL)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode == http.StatusOK {
		t.Error("GET on the mutation route must not succeed")
	}
	if ds.Version() != v0 {
		t.Fatalf("rejected batches mutated the dataset: version %d -> %d", v0, ds.Version())
	}
}

// TestMutateInvalidatesServedCache: a repeated query is served from the
// cache until a mutation moves the dataset version; the stale entry is
// then bypassed and counted in /stats.
func TestMutateInvalidatesServedCache(t *testing.T) {
	srv := New(Config{})
	ds, err := NewDataset("galaxy", workload.Galaxy(300, 9), testDatasetConfig())
	if err != nil {
		t.Fatal(err)
	}
	srv.Register(ds)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	client := ts.Client()

	q := QueryRequest{
		Dataset: "galaxy",
		Method:  MethodDirect,
		Query: `SELECT PACKAGE(G) AS P FROM galaxy G REPEAT 0
SUCH THAT COUNT(P.*) = 3 AND SUM(P.redshift) <= 4
MAXIMIZE SUM(P.petrorad)`,
	}
	var first QueryResponse
	if status, raw := mustPostQuery(t, client, ts.URL, q); status != http.StatusOK {
		t.Fatalf("status %d: %s", status, raw)
	} else if err := json.Unmarshal(raw, &first); err != nil {
		t.Fatal(err)
	}
	var second QueryResponse
	if _, raw := mustPostQuery(t, client, ts.URL, q); true {
		if err := json.Unmarshal(raw, &second); err != nil {
			t.Fatal(err)
		}
	}
	if !second.Cached {
		t.Fatal("repeat query on unchanged dataset missed the cache")
	}

	// Delete the best row of the cached package.
	del := MutateRequest{Delete: []int{first.Rows[0].Row}}
	if status, raw := postJSON(t, client, ts.URL+"/datasets/galaxy/rows", del); status != http.StatusOK {
		t.Fatalf("delete: status %d: %s", status, raw)
	}
	var third QueryResponse
	if _, raw := mustPostQuery(t, client, ts.URL, q); true {
		if err := json.Unmarshal(raw, &third); err != nil {
			t.Fatal(err)
		}
	}
	if third.Cached {
		t.Fatal("query after mutation served the stale cached package")
	}
	for _, pr := range third.Rows {
		if pr.Row == first.Rows[0].Row {
			t.Fatal("answer contains the deleted row")
		}
	}

	resp, err := client.Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st StatsResponse
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	inval := uint64(0)
	for _, cs := range st.Datasets["galaxy"].Caches {
		inval += cs.Invalidations
	}
	if inval == 0 {
		t.Fatalf("no invalidations surfaced in /stats: %+v", st.Datasets["galaxy"].Caches)
	}
}

// TestRowCountReadsRaceInserts: /stats, /datasets and the row gauge
// read a dataset's live row count while inserts move it. Run under
// -race: the count is read under the dataset's read lock.
func TestRowCountReadsRaceInserts(t *testing.T) {
	srv := New(Config{})
	ds, err := NewDataset("galaxy", workload.Galaxy(400, 3), testDatasetConfig())
	if err != nil {
		t.Fatal(err)
	}
	srv.Register(ds)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	client := ts.Client()

	const inserts = 20
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := range inserts {
			raw, err := json.Marshal(MutateRequest{Insert: [][]any{galaxyRowJSON(int64(9001+i), 10, 20, 18, 17.5, 17, 16.8, 16.5, 0.8, 9.5, 16.9)}})
			if err != nil {
				t.Error(err)
				return
			}
			resp, err := client.Post(ts.URL+"/datasets/galaxy/rows", "application/json", bytes.NewReader(raw))
			if err != nil {
				t.Error(err)
				return
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				t.Errorf("insert %d: status %d", i, resp.StatusCode)
			}
		}
	}()
	for range inserts {
		for _, path := range []string{"/stats", "/datasets", "/metrics"} {
			resp, err := client.Get(ts.URL + path)
			if err != nil {
				t.Fatal(err)
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("GET %s: status %d", path, resp.StatusCode)
			}
		}
	}
	<-done
	var got int
	ds.Session().View(func(rel *relation.Relation) { got = rel.Live() })
	if got != 400+inserts {
		t.Errorf("%d live rows after %d inserts, want %d", got, inserts, 400+inserts)
	}
}
