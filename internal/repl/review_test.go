package repl

import (
	"context"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/server"
	"repro/internal/workload"
)

// TestResyncedReplicaStaysPinned pins the resync path's replica mark:
// after a resync the dataset must still be layout-pinned, so that
// background maintenance leaves its tombstones alone and continued
// replay — which addresses rows by physical index — stays aligned with
// the leader.
func TestResyncedReplicaStaysPinned(t *testing.T) {
	leader := newLeader(t, 200)
	rng := rand.New(rand.NewSource(50))
	mutate(t, leader.galaxy(t), rng, 20)

	follower := newFollower(t, leader.ts.URL, t.TempDir(), nil)
	waitCaughtUp(t, follower, leader.galaxy(t).Version())

	// A leader snapshot truncates the WAL out from under the follower's
	// cursor: the next poll answers 409 and forces a resync.
	if err := leader.galaxy(t).Snapshot(); err != nil {
		t.Fatalf("leader snapshot: %v", err)
	}
	mutate(t, leader.galaxy(t), rng, 10)
	st := waitCaughtUp(t, follower, leader.galaxy(t).Version())
	if st.Resyncs == 0 {
		t.Fatalf("leader truncation did not force a resync: %+v", st)
	}
	ds := follower.srv.Dataset("galaxy")
	if ds == nil || !ds.IsReplica() {
		t.Fatal("resynced dataset lost its replica mark")
	}

	// Tombstone well past the maintenance threshold (25%) via leader
	// deletes, then run the follower's maintenance pass. A replica must
	// be skipped: compaction would renumber the physical rows the
	// leader's stream addresses.
	sess := leader.galaxy(t)
	live := sess.Rel().AllRows()
	if _, err := sess.DeleteRows(live[:len(live)*2/5]); err != nil {
		t.Fatalf("leader deletes: %v", err)
	}
	waitCaughtUp(t, follower, sess.Version())
	for _, action := range follower.srv.MaintainOnce() {
		if strings.Contains(action, "galaxy") {
			t.Fatalf("maintenance touched a resynced replica: %q", action)
		}
	}

	// Continued replay after maintenance must still line up with the
	// leader's layout, tombstones included (assertSameData compares the
	// physical row space cell-for-cell).
	mutate(t, sess, rng, 20)
	waitCaughtUp(t, follower, sess.Version())
	assertSameData(t, sess, follower.galaxy(t))
}

// setLeaderEpoch rewrites a test leader's served epoch in place,
// standing in for promotions (raise) and stale ex-leaders (lower).
func setLeaderEpoch(n *Node, epoch uint64) {
	n.mu.Lock()
	n.epoch = epoch
	n.mu.Unlock()
}

// TestFollowerRejectsEpochRegression pins the stream's epoch gate: a
// follower that has seen epoch E must refuse a stream announcing a
// lower epoch — a fenced ex-leader still answering — instead of
// silently applying it with caught_up=true.
func TestFollowerRejectsEpochRegression(t *testing.T) {
	leader := newLeader(t, 150)
	rng := rand.New(rand.NewSource(51))
	mutate(t, leader.galaxy(t), rng, 10)

	follower := newFollower(t, leader.ts.URL, t.TempDir(), nil)
	waitCaughtUp(t, follower, leader.galaxy(t).Version())

	// The leader moves to epoch 5 (as after a promotion chain); the
	// follower observes and adopts it.
	setLeaderEpoch(leader.node, 5)
	mutate(t, leader.galaxy(t), rng, 5)
	waitCaughtUp(t, follower, leader.galaxy(t).Version())
	if got := follower.node.Epoch(); got != 5 {
		t.Fatalf("follower adopted epoch %d, want 5", got)
	}

	// The stream regresses to epoch 1: every subsequent segment must be
	// refused before a byte is applied.
	setLeaderEpoch(leader.node, 1)
	preVersion := follower.galaxy(t).Version()
	mutate(t, leader.galaxy(t), rng, 5)

	deadline := time.Now().Add(10 * time.Second)
	var st TailStats
	for time.Now().Before(deadline) {
		st = follower.node.Stats().Tails["galaxy"]
		if strings.Contains(st.LastError, "epoch regressed") {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	if !strings.Contains(st.LastError, "epoch regressed") {
		t.Fatalf("stale stream never rejected: %+v", st)
	}
	if st.CaughtUp {
		t.Fatalf("tail reports caught_up while refusing a stale stream: %+v", st)
	}
	if got := follower.galaxy(t).Version(); got != preVersion {
		t.Fatalf("follower applied %d versions from a regressed-epoch stream", got-preVersion)
	}

	// Restoring the epoch resumes replication where it left off.
	setLeaderEpoch(leader.node, 5)
	waitCaughtUp(t, follower, leader.galaxy(t).Version())
	assertSameData(t, leader.galaxy(t), follower.galaxy(t))
}

// TestFenceSurvivesRestart pins fence persistence: an ex-leader fenced
// at epoch N must restart fenced (read-only), not as a fresh unfenced
// epoch-1 leader.
func TestFenceSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	srv := server.New(server.Config{})
	ds, err := server.NewDataset("galaxy", workload.Galaxy(100, 1), dsConfig(dir))
	if err != nil {
		t.Fatal(err)
	}
	srv.Register(ds)
	node, err := NewNode(srv, Config{Role: RoleLeader, DataDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(node.Handler())
	resp, body := postJSON(t, ts.URL+"/repl/fence", map[string]any{"epoch": 7})
	ts.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("fence: HTTP %d: %s", resp.StatusCode, body)
	}
	if err := node.gate(); err == nil {
		t.Fatal("fenced leader still accepts mutations")
	}
	if err := srv.CloseDatasets(); err != nil {
		t.Fatal(err)
	}

	// Restart: a new server and node over the same data dir.
	srv2 := server.New(server.Config{})
	ds2, err := server.NewDataset("galaxy", nil, dsConfig(dir))
	if err != nil {
		t.Fatal(err)
	}
	srv2.Register(ds2)
	defer srv2.CloseDatasets()
	node2, err := NewNode(srv2, Config{Role: RoleLeader, DataDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	st := node2.Stats()
	if !st.Fenced || st.FencedBy != 7 {
		t.Fatalf("restart dropped the fence: %+v", st)
	}
	if err := node2.gate(); err == nil {
		t.Fatal("restarted ex-leader accepts mutations despite a persisted fence")
	}
}

// TestPromotedEpochSurvivesRestart pins epoch persistence: a follower
// promoted to epoch E restarted as a leader must resume at E, not
// revert to the unfenced default of 1.
func TestPromotedEpochSurvivesRestart(t *testing.T) {
	leader := newLeader(t, 100)
	rng := rand.New(rand.NewSource(52))
	mutate(t, leader.galaxy(t), rng, 10)

	fdir := t.TempDir()
	follower := newFollower(t, leader.ts.URL, fdir, nil)
	waitCaughtUp(t, follower, leader.galaxy(t).Version())
	pr, err := follower.node.Promote(context.Background())
	if err != nil {
		t.Fatalf("promote: %v", err)
	}
	if pr.Epoch < 2 {
		t.Fatalf("promotion epoch %d, want >= 2", pr.Epoch)
	}
	follower.close()

	srv2 := server.New(server.Config{})
	ds2, err := server.NewDataset("galaxy", nil, dsConfig(fdir))
	if err != nil {
		t.Fatal(err)
	}
	srv2.Register(ds2)
	defer srv2.CloseDatasets()
	node2, err := NewNode(srv2, Config{Role: RoleLeader, DataDir: fdir})
	if err != nil {
		t.Fatal(err)
	}
	if got := node2.Epoch(); got != pr.Epoch {
		t.Fatalf("restarted leader at epoch %d, want the promoted epoch %d", got, pr.Epoch)
	}
	if err := node2.gate(); err != nil {
		t.Fatalf("restarted promoted leader refuses mutations: %v", err)
	}
}

// faultTransport fails requests whose URL contains every listed
// substring; everything else passes through.
type faultTransport struct {
	substrs []string
}

func (ft *faultTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	url := req.URL.String()
	matched := true
	for _, s := range ft.substrs {
		if !strings.Contains(url, s) {
			matched = false
			break
		}
	}
	if matched {
		return nil, fmt.Errorf("injected fault for %s", url)
	}
	return http.DefaultTransport.RoundTrip(req)
}

// TestPartialBootstrapFailureCleansUp pins Start's error path: when
// one dataset's bootstrap fails, siblings that already opened and
// registered must be deregistered and closed — not left serving
// stale, never-updating replicas with no tail.
func TestPartialBootstrapFailureCleansUp(t *testing.T) {
	ldir := t.TempDir()
	lsrv := server.New(server.Config{})
	for _, name := range []string{"alpha", "beta"} {
		ds, err := server.NewDataset(name, workload.Galaxy(80, 1), dsConfig(ldir))
		if err != nil {
			t.Fatal(err)
		}
		lsrv.Register(ds)
	}
	lnode, err := NewNode(lsrv, Config{Role: RoleLeader})
	if err != nil {
		t.Fatal(err)
	}
	lts := httptest.NewServer(lnode.Handler())
	defer lts.Close()
	defer lsrv.CloseDatasets()

	client := &http.Client{Transport: &faultTransport{substrs: []string{"/repl/snapshot", "dataset=beta"}}}
	fsrv := server.New(server.Config{})
	fnode, err := NewNode(fsrv, Config{
		Role:         RoleFollower,
		Leader:       lts.URL,
		DataDir:      t.TempDir(),
		Dataset:      dsConfig(""),
		PollInterval: 10 * time.Millisecond,
		Client:       client,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := fnode.Start(); err == nil {
		t.Fatal("Start succeeded despite an unfetchable snapshot")
	}
	for _, name := range []string{"alpha", "beta"} {
		if fsrv.Dataset(name) != nil {
			t.Fatalf("dataset %q left registered after a failed bootstrap", name)
		}
	}
	if tails := fnode.Stats().Tails; len(tails) != 0 {
		t.Fatalf("failed bootstrap left %d tail(s): %+v", len(tails), tails)
	}
}
