package bench

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"repro/internal/repl"
	"repro/internal/server"
	"repro/internal/workload"
	"repro/paq"
)

// ReplConfig configures the replication differential experiment
// (`benchrunner -exp repl`): a leader paqld and N followers absorb a
// randomized mutation/solve workload under fault injection — stream
// cuts mid-record on one follower, a leader snapshot that truncates
// the shipped log under every tail, a follower crash-restart — and
// finish with a leader kill and an explicit promotion. An in-memory
// twin mirrors every acknowledged mutation; any divergence between it
// and any replica is an error.
type ReplConfig struct {
	// Ops is the number of acknowledged leader mutations before the
	// failover; 0 means 400. A further Ops/8 run against the promoted
	// leader.
	Ops int
	// Followers is the replica count; minimum (and default) 2.
	Followers int
	// Dir is the root durability directory (leader and follower stores
	// under it); empty means a fresh temp dir (removed afterwards).
	Dir string
}

// ReplResult summarizes the experiment.
type ReplResult struct {
	Followers                  int
	Acked                      int
	Inserted, Deleted, Updated int
	// PostFailoverAcked counts mutations acknowledged by the promoted
	// leader.
	PostFailoverAcked int
	// StreamCuts is the number of /repl/wal responses the fault injector
	// truncated mid-record; Resyncs the snapshot re-bootstraps the
	// followers performed (the leader-snapshot fault forces at least
	// one).
	StreamCuts uint64
	Resyncs    uint64
	// PromotedEpoch is the epoch the promoted follower now writes under
	// (≥ 2); DrainedRecords what its final drain applied.
	PromotedEpoch  uint64
	DrainedRecords uint64
	// InFlightReads counts solves the restarted follower served over
	// its HTTP API while its tail was replaying the phase-2b mutation
	// stream; InFlightInfeasible the subset that came back infeasible
	// (served and version-checked — a data state, not an availability
	// failure). ReadPinMaxWait is that follower's worst snapshot-pin
	// wait on the mutation lock: "zero blocked reads", quantified.
	InFlightReads      int
	InFlightInfeasible int
	ReadPinMaxWait     time.Duration
	Queries            []DiffQuery
	Elapsed            time.Duration
}

// cuttingTransport injects stream faults: it truncates every cutEvery-th
// /repl/wal response body at a random byte — usually mid-record — as a
// connection dropped mid-transfer would.
type cuttingTransport struct {
	mu   sync.Mutex
	rng  *rand.Rand
	n    int
	cuts uint64
}

// cutEvery is the fault cadence: every 3rd WAL segment a cut follower
// receives arrives truncated.
const cutEvery = 3

func (c *cuttingTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	resp, err := http.DefaultTransport.RoundTrip(req)
	if err != nil || resp.StatusCode != http.StatusOK || !strings.HasSuffix(req.URL.Path, "/repl/wal") {
		return resp, err
	}
	body, rerr := io.ReadAll(resp.Body)
	resp.Body.Close()
	if rerr != nil {
		return nil, rerr
	}
	c.mu.Lock()
	c.n++
	if c.n%cutEvery == 0 && len(body) > 1 {
		body = body[:1+c.rng.Intn(len(body)-1)]
		c.cuts++
	}
	c.mu.Unlock()
	resp.Body = io.NopCloser(bytes.NewReader(body))
	resp.ContentLength = int64(len(body))
	return resp, nil
}

func (c *cuttingTransport) count() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.cuts
}

// replFollower is one running follower: its server, replication node,
// and HTTP front.
type replFollower struct {
	srv  *server.Server
	node *repl.Node
	stop func() // closes the HTTP front
	url  string
	dir  string
}

// crash tears the follower down without closing its datasets — the
// sessions are abandoned mid-flight, exactly as a kill would leave
// them; only their own WALs carry the applied records across.
func (f *replFollower) crash() {
	f.node.Stop()
	f.stop()
}

func (f *replFollower) session() *paq.Session {
	ds := f.srv.Dataset("galaxy")
	if ds == nil {
		return nil
	}
	return ds.Session()
}

// startReplFollower boots a follower over dir (bootstrapping from the
// leader snapshot when dir is empty, resuming from local state when
// not) and serves its API on a loopback port. cut, when non-nil,
// injects stream faults into its tail.
func (e *Env) startReplFollower(leaderURL, dir string, dsCfg server.DatasetConfig, cut *cuttingTransport) (*replFollower, error) {
	srv := server.New(server.Config{MaxQueued: 4096, DefaultTimeout: e.cfg.TimeLimit + time.Minute})
	var client *http.Client
	if cut != nil {
		client = &http.Client{Transport: cut, Timeout: 60 * time.Second}
	}
	node, err := repl.NewNode(srv, repl.Config{
		Role:         repl.RoleFollower,
		Leader:       leaderURL,
		DataDir:      dir,
		Dataset:      dsCfg,
		PollInterval: 5 * time.Millisecond,
		Client:       client,
	})
	if err != nil {
		return nil, err
	}
	if err := node.Start(); err != nil {
		return nil, err
	}
	url, stop, err := serve(node.Handler())
	if err != nil {
		node.Stop()
		return nil, err
	}
	return &replFollower{srv: srv, node: node, stop: stop, url: url, dir: dir}, nil
}

// inflightReadStats summarizes the mid-replay read phase.
type inflightReadStats struct {
	reads       int
	infeasible  int
	lastVersion uint64
	err         error
}

// inflightReads hammers a follower's query API until stop closes. The
// follower is concurrently applying the leader's WAL, so every solve
// exercises the MVCC path: it must be served (no 429/504 — a shed or
// stalled read is a blocked read), and the pinned versions it reports
// must never run backwards. Infeasible responses carry no version and
// are counted separately.
func inflightReads(ctx context.Context, client *http.Client, url, paql string, timeoutMS int64, stop <-chan struct{}) inflightReadStats {
	var st inflightReadStats
	var prev uint64
	for {
		select {
		case <-stop:
			return st
		default:
		}
		var qr server.QueryResponse
		if _, err := postJSON(ctx, client, url+"/query", server.QueryRequest{
			Dataset: "galaxy", Query: paql,
			Method: server.MethodSketchRefine, TimeoutMS: timeoutMS,
		}, &qr); err != nil {
			st.err = fmt.Errorf("read %d blocked, refused, or lost mid-replay: %w", st.reads, err)
			return st
		}
		st.reads++
		if qr.Infeasible {
			st.infeasible++
			continue
		}
		if qr.Version < prev {
			st.err = fmt.Errorf("read %d went backwards: version %d after %d", st.reads-1, qr.Version, prev)
			return st
		}
		prev, st.lastVersion = qr.Version, qr.Version
	}
}

// waitReplCaughtUp blocks until the follower's galaxy tail reports
// zero lag at or past version.
func waitReplCaughtUp(ctx context.Context, f *replFollower, version uint64, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	var st repl.TailStats
	for time.Now().Before(deadline) {
		if err := ctx.Err(); err != nil {
			return err
		}
		st = f.node.Stats().Tails["galaxy"]
		if st.CaughtUp && st.Lag == 0 && st.LocalVersion >= version {
			return nil
		}
		time.Sleep(2 * time.Millisecond)
	}
	return fmt.Errorf("follower %s never caught up to version %d: %+v", f.dir, version, st)
}

// Repl runs the leader/follower replication differential. Any
// divergence between a replica and the twin — a lost acknowledged
// mutation, a version mismatch, an objective not bit-equal to the twin's,
// a follower that never returns to zero lag after a fault — is an
// error.
func (e *Env) Repl(ctx context.Context, cfg ReplConfig) (*ReplResult, error) {
	start := time.Now()
	if cfg.Ops <= 0 {
		cfg.Ops = 400
	}
	if cfg.Followers < 2 {
		cfg.Followers = 2
	}
	dir := cfg.Dir
	if dir == "" {
		var err error
		dir, err = os.MkdirTemp("", "paq-repl-*")
		if err != nil {
			return nil, err
		}
		defer os.RemoveAll(dir)
	}
	const convergeTimeout = 120 * time.Second
	res := &ReplResult{Followers: cfg.Followers}
	fail := func(format string, args ...any) (*ReplResult, error) {
		return res, fmt.Errorf("bench: repl: "+format, args...)
	}

	base := e.cfg.GalaxyN
	full := workload.Galaxy(base+cfg.Ops+cfg.Ops/8, e.cfg.Seed)
	dsCfg := server.DatasetConfig{
		Attrs: e.attrs[Galaxy], TauFrac: e.cfg.TauFrac, Workers: e.cfg.Workers,
		TimeLimit: e.cfg.TimeLimit, MaxNodes: e.cfg.MaxNodes, Gap: e.cfg.Gap,
		Seed: e.cfg.Seed,
	}
	fmt.Fprintf(e.cfg.Out, "Replication differential (Galaxy, %d rows; %d followers)\n", base, cfg.Followers)

	// Leader: a durable Galaxy dataset behind a replication node.
	leaderCfg := dsCfg
	leaderCfg.DataDir = filepath.Join(dir, "leader")
	leaderDS, err := server.NewDataset("galaxy", full.Subset("galaxy", full.AllRows()[:base]), leaderCfg)
	if err != nil {
		return fail("leader dataset: %w", err)
	}
	leaderSrv := server.New(server.Config{MaxQueued: 4096, DefaultTimeout: e.cfg.TimeLimit + time.Minute})
	leaderSrv.Register(leaderDS)
	leaderNode, err := repl.NewNode(leaderSrv, repl.Config{Role: repl.RoleLeader})
	if err != nil {
		return fail("leader node: %w", err)
	}
	leaderURL, killLeader, err := serve(leaderNode.Handler())
	if err != nil {
		return fail("leader listen: %w", err)
	}
	defer killLeader()

	// The in-memory twin: same initial data, same solver configuration,
	// fed only by acknowledgements.
	twin, err := e.openLive(full)
	if err != nil {
		return fail("twin: %w", err)
	}

	// Followers; follower 0's stream runs through the fault injector.
	cut := &cuttingTransport{rng: rand.New(rand.NewSource(e.cfg.Seed + 1))}
	fols := make([]*replFollower, cfg.Followers)
	defer func() {
		for _, f := range fols {
			if f != nil {
				f.crash()
			}
		}
	}()
	for i := range fols {
		var c *cuttingTransport
		if i == 0 {
			c = cut
		}
		fols[i], err = e.startReplFollower(leaderURL, filepath.Join(dir, fmt.Sprintf("follower%d", i)), dsCfg, c)
		if err != nil {
			return fail("follower %d: %w", i, err)
		}
	}

	// Acknowledged mutations go through the leader's HTTP API and are
	// mirrored into the twin; the stream checks per op that the
	// acknowledged version is the twin's — the zero-loss anchor.
	client := &http.Client{Timeout: 60 * time.Second}
	stream := newMutationStream(e.cfg.Seed, full, base, opMix{insert: 0.5, delete: 0.3}, base/2,
		twin.Rel().AllRows(), httpSink{client, leaderURL}, sessionSink{twin})
	converge := func(phase string) error {
		for i, f := range fols {
			if err := waitReplCaughtUp(ctx, f, twin.Version(), convergeTimeout); err != nil {
				return fmt.Errorf("%s: follower %d: %w", phase, i, err)
			}
		}
		return nil
	}

	// ---- phase 1: mutations under stream cuts --------------------------
	if err := stream.run(ctx, cfg.Ops/2); err != nil {
		return fail("phase 1: %w", err)
	}
	if err := converge("phase 1"); err != nil {
		return fail("%w", err)
	}

	// ---- fault: leader snapshot truncates the shipped log --------------
	// Every follower's byte cursor dies; all must resync from the new
	// snapshot and return to zero lag. The twin mirrors the compaction
	// so versions and row indices stay aligned.
	if err := leaderDS.Session().Snapshot(); err != nil {
		return fail("leader snapshot: %w", err)
	}
	if _, err := twin.Compact(); err != nil {
		return fail("twin compact: %w", err)
	}
	stream.live = twin.Rel().AllRows()

	// ---- phase 2: more mutations; follower 1 crash-restarts mid-way ----
	if err := stream.run(ctx, cfg.Ops/4); err != nil {
		return fail("phase 2: %w", err)
	}
	fols[1].crash()
	if fols[1], err = e.startReplFollower(leaderURL, fols[1].dir, dsCfg, nil); err != nil {
		return fail("follower 1 restart: %w", err)
	}
	// ---- phase 2b + in-flight reads ------------------------------------
	// While the restarted follower 1 tails the remaining mutations, a
	// reader hammers its query API: snapshot pinning must keep every
	// solve served and version-consistent mid-replay.
	var rd inflightReadStats
	readStop, readDone := make(chan struct{}), make(chan struct{})
	var stopReadsOnce sync.Once
	stopReads := func() {
		stopReadsOnce.Do(func() { close(readStop) })
		<-readDone
	}
	defer stopReads()
	go func(url string) {
		defer close(readDone)
		rd = inflightReads(ctx, client, url, e.feasibleQueries(Galaxy)[0].PaQL,
			int64((e.cfg.TimeLimit+time.Minute)/time.Millisecond), readStop)
	}(fols[1].url)
	if err := stream.run(ctx, cfg.Ops-cfg.Ops/2-cfg.Ops/4); err != nil {
		return fail("phase 2b: %w", err)
	}
	if err := converge("phase 2"); err != nil {
		return fail("%w", err)
	}
	stopReads()
	if rd.err != nil {
		return fail("in-flight reads: %w", rd.err)
	}
	if rd.reads == 0 {
		return fail("in-flight read phase served zero reads")
	}
	if tv := twin.Version(); rd.lastVersion > tv {
		return fail("in-flight read pinned version %d beyond the twin's %d (torn version)", rd.lastVersion, tv)
	}
	res.InFlightReads, res.InFlightInfeasible = rd.reads, rd.infeasible
	readPin := fols[1].srv.Stats().Datasets["galaxy"].Pinning
	res.ReadPinMaxWait = time.Duration(readPin.MaxWaitMS * float64(time.Millisecond))
	if res.ReadPinMaxWait > pinStallBudget {
		return fail("in-flight reads: worst snapshot-pin wait %v exceeds %v — replay blocked reads", res.ReadPinMaxWait, pinStallBudget)
	}

	// ---- convergence: every replica equals the twin --------------------
	sessions := make([]*paq.Session, len(fols))
	for i, f := range fols {
		res.Resyncs += f.node.Stats().Tails["galaxy"].Resyncs
		sessions[i] = f.session()
		if err := relationsEqual(fmt.Sprintf("follower %d", i), sessions[i].Rel(), twin.Rel()); err != nil {
			return fail("%w", err)
		}
	}
	res.StreamCuts = cut.count()
	if res.StreamCuts == 0 {
		return fail("fault injector cut no streams (faults never fired)")
	}
	if res.Resyncs == 0 {
		return fail("no follower resynced across the leader snapshot (fault never bit)")
	}
	res.Acked = stream.acked()

	// ---- solve differential: followers vs twin -------------------------
	var violation error
	if res.Queries, _, violation = e.solveDifferential(ctx, "follower", "twin", sessions, twin, true); violation != nil {
		return fail("%w", violation)
	}

	// ---- failover: kill the leader, promote follower 0 -----------------
	// The shipped tail is fully drained (lag 0 above), so promotion must
	// carry every acknowledged mutation across. The leader dies hard:
	// listener closed, sessions abandoned.
	killLeader()
	var pr repl.PromoteResult
	if _, err := postJSON(ctx, client, fols[0].url+"/repl/promote", struct{}{}, &pr); err != nil {
		return fail("promote: %w", err)
	}
	res.PromotedEpoch = pr.Epoch
	res.DrainedRecords = pr.DrainedRecords
	if pr.Epoch < 2 {
		return fail("promotion kept epoch %d, want >= 2", pr.Epoch)
	}
	if got, want := pr.Datasets["galaxy"], twin.Version(); got != want {
		return fail("promoted at version %d, twin at %d (acknowledged mutations lost in failover)", got, want)
	}

	// ---- life after failover -------------------------------------------
	// The promoted leader accepts mutations; follower 1 re-points at it
	// and converges — its cursor carries over because every follower
	// writes its own WAL, which the new leader's version-indexed stream
	// can resume from.
	stream.sinks[0] = httpSink{client, fols[0].url}
	if err := stream.run(ctx, cfg.Ops/8); err != nil {
		return fail("post-failover mutations: %w", err)
	}
	res.PostFailoverAcked = cfg.Ops / 8
	fols[1].crash()
	if fols[1], err = e.startReplFollower(fols[0].url, fols[1].dir, dsCfg, nil); err != nil {
		return fail("follower 1 re-point: %w", err)
	}
	if err := waitReplCaughtUp(ctx, fols[1], twin.Version(), convergeTimeout); err != nil {
		return fail("post-failover: %w", err)
	}
	for i, who := range []string{"promoted leader", "re-pointed follower 1"} {
		if err := relationsEqual(who, fols[i].session().Rel(), twin.Rel()); err != nil {
			return fail("%w", err)
		}
	}
	res.Inserted, res.Deleted, res.Updated = stream.inserted, stream.deleted, stream.updated
	res.Elapsed = time.Since(start)

	fmt.Fprintf(e.cfg.Out, "%d acked mutations (%d ins / %d del / %d upd) + %d after failover; %d stream cuts, %d resyncs\n",
		res.Acked, res.Inserted, res.Deleted, res.Updated, res.PostFailoverAcked, res.StreamCuts, res.Resyncs)
	fmt.Fprintf(e.cfg.Out, "promoted follower 0 to epoch %d (drained %d records); all replicas converged with the twin\n",
		res.PromotedEpoch, res.DrainedRecords)
	fmt.Fprintf(e.cfg.Out, "%d in-flight reads served mid-replay (%d infeasible), zero blocked; worst pin wait %v in %v\n",
		res.InFlightReads, res.InFlightInfeasible, res.ReadPinMaxWait, res.Elapsed.Round(time.Millisecond))
	return res, nil
}
