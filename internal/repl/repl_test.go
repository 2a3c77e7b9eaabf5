package repl

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/relation"
	"repro/internal/server"
	"repro/internal/workload"
	"repro/paq"
)

// dsConfig is the shared dataset shape: explicit partition attributes
// so leader and follower key the same warm partitioning, and a fixed
// seed so evaluations are deterministic.
func dsConfig(dataDir string) server.DatasetConfig {
	return server.DatasetConfig{
		Attrs:   []string{"ra", "dec"},
		TauFrac: 0.25,
		Workers: 2,
		Seed:    7,
		DataDir: dataDir,
	}
}

type testNode struct {
	node *Node
	srv  *server.Server
	ts   *httptest.Server
	dir  string
}

func (tn *testNode) close() {
	tn.ts.Close()
	tn.node.Stop()
	_ = tn.srv.CloseDatasets()
}

// galaxySession returns the node's "galaxy" session.
func (tn *testNode) galaxy(t *testing.T) *paq.Session {
	t.Helper()
	ds := tn.srv.Dataset("galaxy")
	if ds == nil {
		t.Fatal("no galaxy dataset registered")
	}
	return ds.Session()
}

func newLeader(t *testing.T, rows int) *testNode {
	t.Helper()
	dir := t.TempDir()
	srv := server.New(server.Config{})
	ds, err := server.NewDataset("galaxy", workload.Galaxy(rows, 1), dsConfig(dir))
	if err != nil {
		t.Fatalf("leader dataset: %v", err)
	}
	srv.Register(ds)
	node, err := NewNode(srv, Config{Role: RoleLeader})
	if err != nil {
		t.Fatalf("leader node: %v", err)
	}
	ts := httptest.NewServer(node.Handler())
	tn := &testNode{node: node, srv: srv, ts: ts, dir: dir}
	t.Cleanup(tn.close)
	return tn
}

// newFollower starts a follower against leaderURL, reusing dir so
// restart tests resume from local state. client customizes transport
// fault injection (nil for a plain client).
func newFollower(t *testing.T, leaderURL, dir string, client *http.Client) *testNode {
	t.Helper()
	srv := server.New(server.Config{})
	node, err := NewNode(srv, Config{
		Role:         RoleFollower,
		Leader:       leaderURL,
		DataDir:      dir,
		Dataset:      dsConfig(""),
		PollInterval: 10 * time.Millisecond,
		Client:       client,
	})
	if err != nil {
		t.Fatalf("follower node: %v", err)
	}
	if err := node.Start(); err != nil {
		t.Fatalf("follower start: %v", err)
	}
	ts := httptest.NewServer(node.Handler())
	tn := &testNode{node: node, srv: srv, ts: ts, dir: dir}
	t.Cleanup(tn.close)
	return tn
}

// mutate applies n random single-row mutations (insert/delete/update)
// to the session — every one acknowledged (durable) when it returns.
func mutate(t *testing.T, sess *paq.Session, rng *rand.Rand, n int) {
	t.Helper()
	pool := workload.Galaxy(4096, 99)
	live := sess.Rel().AllRows()
	for op := 0; op < n; op++ {
		switch k := rng.Float64(); {
		case k < 0.5 || len(live) < 32:
			row := pool.Row(rng.Intn(pool.Len()))
			if _, _, err := sess.InsertRows([][]relation.Value{row}); err != nil {
				t.Fatalf("insert op %d: %v", op, err)
			}
			live = append(live, sess.Rel().Len()-1)
		case k < 0.8:
			i := rng.Intn(len(live))
			row := live[i]
			live = append(live[:i], live[i+1:]...)
			if _, err := sess.DeleteRows([]int{row}); err != nil {
				t.Fatalf("delete op %d: %v", op, err)
			}
		default:
			victim := live[rng.Intn(len(live))]
			vals := pool.Row(rng.Intn(pool.Len()))
			if _, err := sess.UpdateRows([]int{victim}, [][]relation.Value{vals}); err != nil {
				t.Fatalf("update op %d: %v", op, err)
			}
		}
	}
}

// waitCaughtUp polls the follower until its galaxy tail reports zero
// lag at or past the given leader version.
func waitCaughtUp(t *testing.T, f *testNode, leaderVersion uint64) TailStats {
	t.Helper()
	deadline := time.Now().Add(15 * time.Second)
	var st TailStats
	for time.Now().Before(deadline) {
		st = f.node.Stats().Tails["galaxy"]
		if st.CaughtUp && st.Lag == 0 && st.LocalVersion >= leaderVersion {
			return st
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("follower never caught up to version %d: %+v", leaderVersion, st)
	return st
}

// assertSameData compares two relations cell-for-cell (tombstones
// included) and their versions.
func assertSameData(t *testing.T, a, b *paq.Session) {
	t.Helper()
	if av, bv := a.Version(), b.Version(); av != bv {
		t.Fatalf("version diverged: %d vs %d", av, bv)
	}
	ra, rb := a.Rel(), b.Rel()
	if ra.Len() != rb.Len() || ra.Live() != rb.Live() {
		t.Fatalf("shape diverged: %d/%d vs %d/%d rows", ra.Len(), ra.Live(), rb.Len(), rb.Live())
	}
	for r := 0; r < ra.Len(); r++ {
		if ra.Deleted(r) != rb.Deleted(r) {
			t.Fatalf("tombstone of row %d diverged", r)
		}
		if ra.Deleted(r) {
			continue
		}
		for c := 0; c < ra.Schema().Len(); c++ {
			if !ra.Value(r, c).Equal(rb.Value(r, c)) {
				t.Fatalf("cell (%d,%d) diverged: %v vs %v", r, c, ra.Value(r, c), rb.Value(r, c))
			}
		}
	}
}

func postJSON(t *testing.T, url string, body any) (*http.Response, []byte) {
	t.Helper()
	raw, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	return resp, buf.Bytes()
}

func TestFollowerReplicatesAndServes(t *testing.T) {
	leader := newLeader(t, 300)
	rng := rand.New(rand.NewSource(42))
	mutate(t, leader.galaxy(t), rng, 40)

	follower := newFollower(t, leader.ts.URL, t.TempDir(), nil)
	waitCaughtUp(t, follower, leader.galaxy(t).Version())
	assertSameData(t, leader.galaxy(t), follower.galaxy(t))

	// Replication continues while the leader keeps mutating.
	mutate(t, leader.galaxy(t), rng, 60)
	st := waitCaughtUp(t, follower, leader.galaxy(t).Version())
	assertSameData(t, leader.galaxy(t), follower.galaxy(t))
	if st.Applied == 0 {
		t.Fatalf("tail applied no records: %+v", st)
	}
	if st.Resyncs != 0 {
		t.Fatalf("tail resynced %d times on a clean stream", st.Resyncs)
	}

	// The follower serves solves...
	queries, err := workload.GalaxyQueries(follower.galaxy(t).Rel())
	if err != nil {
		t.Fatal(err)
	}
	var paql string
	for _, q := range queries {
		if !q.Hard {
			paql = q.PaQL
			break
		}
	}
	resp, body := postJSON(t, follower.ts.URL+"/query",
		map[string]any{"dataset": "galaxy", "query": paql, "method": "sketchrefine"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("follower solve: HTTP %d: %s", resp.StatusCode, body)
	}

	// ...but refuses mutations.
	resp, body = postJSON(t, follower.ts.URL+"/datasets/galaxy/rows",
		map[string]any{"delete": []int{0}})
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("follower mutation: HTTP %d (want 503): %s", resp.StatusCode, body)
	}

	// Replication lag is visible in /stats.
	sresp, err := http.Get(follower.ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer sresp.Body.Close()
	var stats struct {
		Replication *NodeStats `json:"replication"`
	}
	if err := json.NewDecoder(sresp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	if stats.Replication == nil || stats.Replication.Role != RoleFollower {
		t.Fatalf("stats replication block missing or wrong: %+v", stats.Replication)
	}
	if ts, ok := stats.Replication.Tails["galaxy"]; !ok || ts.Lag != 0 {
		t.Fatalf("stats tail block missing or lagging: %+v", stats.Replication.Tails)
	}
}

func TestFollowerRestartResumes(t *testing.T) {
	leader := newLeader(t, 200)
	rng := rand.New(rand.NewSource(43))
	mutate(t, leader.galaxy(t), rng, 30)

	fdir := t.TempDir()
	follower := newFollower(t, leader.ts.URL, fdir, nil)
	waitCaughtUp(t, follower, leader.galaxy(t).Version())
	follower.close() // graceful: final snapshot into the follower's own store

	mutate(t, leader.galaxy(t), rng, 30)

	restarted := newFollower(t, leader.ts.URL, fdir, nil)
	st := waitCaughtUp(t, restarted, leader.galaxy(t).Version())
	assertSameData(t, leader.galaxy(t), restarted.galaxy(t))
	if st.Resyncs != 0 {
		t.Fatalf("restart forced %d resync(s); want resume from local state", st.Resyncs)
	}
	// The restart bootstrapped from local state, not a re-shipped
	// snapshot (no snapshot fetch means the leader served none since).
	if got := restarted.node.Stats().Tails["galaxy"].Applied; got == 0 {
		t.Fatalf("restarted tail applied no records")
	}
}

func TestFollowerResyncsAfterLeaderTruncation(t *testing.T) {
	leader := newLeader(t, 200)
	rng := rand.New(rand.NewSource(44))
	mutate(t, leader.galaxy(t), rng, 20)

	fdir := t.TempDir()
	follower := newFollower(t, leader.ts.URL, fdir, nil)
	waitCaughtUp(t, follower, leader.galaxy(t).Version())
	follower.close()

	// While the follower is down the leader mutates and snapshots: the
	// log the follower's cursor points into is truncated away.
	mutate(t, leader.galaxy(t), rng, 25)
	if err := leader.galaxy(t).Snapshot(); err != nil {
		t.Fatalf("leader snapshot: %v", err)
	}
	mutate(t, leader.galaxy(t), rng, 10)

	restarted := newFollower(t, leader.ts.URL, fdir, nil)
	st := waitCaughtUp(t, restarted, leader.galaxy(t).Version())
	assertSameData(t, leader.galaxy(t), restarted.galaxy(t))
	if st.Resyncs == 0 {
		t.Fatalf("follower resumed across a truncated WAL without resync: %+v", st)
	}
}

func TestPromoteFencesOldLeader(t *testing.T) {
	leader := newLeader(t, 200)
	rng := rand.New(rand.NewSource(45))
	mutate(t, leader.galaxy(t), rng, 30)

	follower := newFollower(t, leader.ts.URL, t.TempDir(), nil)
	waitCaughtUp(t, follower, leader.galaxy(t).Version())

	resp, body := postJSON(t, follower.ts.URL+"/repl/promote", map[string]any{})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("promote: HTTP %d: %s", resp.StatusCode, body)
	}
	var pr PromoteResult
	if err := json.Unmarshal(body, &pr); err != nil {
		t.Fatal(err)
	}
	if pr.Epoch < 2 {
		t.Fatalf("promotion epoch %d, want >= 2", pr.Epoch)
	}
	if got := follower.node.Role(); got != RoleLeader {
		t.Fatalf("promoted node role %q", got)
	}
	if pr.Datasets["galaxy"] != leader.galaxy(t).Version() {
		t.Fatalf("promoted at version %d, leader at %d", pr.Datasets["galaxy"], leader.galaxy(t).Version())
	}

	// The old leader is fenced: mutations refused.
	row := make([]any, leader.galaxy(t).Rel().Schema().Len())
	row[0] = 999999
	for i := 1; i < len(row); i++ {
		row[i] = float64(i)
	}
	resp, body = postJSON(t, leader.ts.URL+"/datasets/galaxy/rows", map[string]any{"insert": [][]any{row}})
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("fenced leader accepted mutation: HTTP %d: %s", resp.StatusCode, body)
	}

	// The new leader accepts them.
	resp, body = postJSON(t, follower.ts.URL+"/datasets/galaxy/rows", map[string]any{"insert": [][]any{row}})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("new leader refused mutation: HTTP %d: %s", resp.StatusCode, body)
	}

	// Promotion is not repeatable.
	if _, err := follower.node.Promote(context.Background()); err == nil {
		t.Fatal("second promotion succeeded")
	}
}

func TestWALEndpointRejectsBadCursors(t *testing.T) {
	leader := newLeader(t, 150)
	rng := rand.New(rand.NewSource(46))
	mutate(t, leader.galaxy(t), rng, 10)

	get := func(q string) int {
		resp, err := http.Get(leader.ts.URL + "/repl/wal?dataset=galaxy" + q)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		return resp.StatusCode
	}
	if code := get("&from_offset=9999999&base_version=0"); code != http.StatusConflict {
		t.Fatalf("stale base: HTTP %d, want 409", code)
	}
	dur := leader.srv.Dataset("galaxy").DurStats()
	if code := get(fmt.Sprintf("&from_offset=13&base_version=%d", dur.SnapshotVersion)); code != http.StatusConflict {
		t.Fatalf("mid-record offset: HTTP %d, want 409", code)
	}
	if code := get("&from_version=1"); code != http.StatusConflict {
		t.Fatalf("pre-snapshot version: HTTP %d, want 409", code)
	}
	if code := get(""); code != http.StatusBadRequest {
		t.Fatalf("missing cursor: HTTP %d, want 400", code)
	}
	resp, err := http.Get(leader.ts.URL + "/repl/wal?dataset=nope&from_version=0")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown dataset: HTTP %d, want 404", resp.StatusCode)
	}
}
