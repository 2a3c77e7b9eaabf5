// Package repl is paqld's WAL-shipping replication layer: a leader
// streams its per-dataset write-ahead logs over HTTP, followers tail
// the streams and replay every record through the same validate/apply
// path recovery uses, and an explicit promotion turns a follower into
// the new leader, fencing the old one by epoch.
//
// The design leans on two properties the store already guarantees:
//
//   - The WAL is an append-only stream of CRC-framed records between
//     snapshots, so "replicate" is literally "ship the recovery log":
//     a follower is a continuously recovering replica, and promotion
//     is just recovery finishing.
//   - Every record carries the dataset version it applied at
//     (PreVersion), so replay is idempotent and gap-detecting: a
//     record below the replica's version is already applied (skip),
//     one above it means bytes were lost (full resync), and only an
//     exact match applies. The follower's own dataset version — made
//     durable by its own store — is therefore the resume cursor; byte
//     offsets are merely an optimization for the common path.
//
// Only durably fsynced leader bytes are shipped (the store's synced
// watermark): a record the leader could lose in a crash never reaches
// a follower, so follower state never runs ahead of what leader
// recovery would rebuild.
package repl

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/server"
)

// Role is a node's replication role.
type Role string

// The two roles. A follower becomes a leader only through Promote.
const (
	RoleLeader   Role = "leader"
	RoleFollower Role = "follower"
)

// Stream protocol headers. Offsets are byte offsets into the leader's
// WAL file; the base version identifies the WAL incarnation (the
// leader's snapshot version), since a snapshot truncates the log and
// invalidates every offset.
const (
	hdrEpoch         = "X-Paq-Repl-Epoch"
	hdrBaseVersion   = "X-Paq-Repl-Base-Version"
	hdrStartOffset   = "X-Paq-Repl-Start-Offset"
	hdrEndOffset     = "X-Paq-Repl-End-Offset"
	hdrLeaderVersion = "X-Paq-Repl-Leader-Version"
	hdrSnapVersion   = "X-Paq-Repl-Snapshot-Version"
)

// Config configures a replication node.
type Config struct {
	// Role selects leader (serve mutations and the WAL stream) or
	// follower (tail a leader, serve reads/solves only).
	Role Role
	// Leader is the leader's base URL (followers only).
	Leader string
	// DataDir is the follower's durability root; each replicated
	// dataset stores under DataDir/<name>. Required for followers.
	DataDir string
	// Dataset supplies the solver budgets and partition attributes for
	// follower-opened datasets (DataDir inside it is overridden).
	Dataset server.DatasetConfig
	// Datasets names the datasets to replicate; empty means every
	// dataset the leader lists.
	Datasets []string
	// PollInterval is the tail's idle poll cadence; 0 means 250ms.
	PollInterval time.Duration
	// MaxSegmentBytes caps one /repl/wal response; 0 means 4 MiB.
	MaxSegmentBytes int64
	// Epoch is the node's initial leader epoch; 0 means 1. A higher
	// epoch persisted in DataDir (by a past promotion or stream
	// observation) wins over this value.
	Epoch uint64
	// Client issues the follower's HTTP requests; nil means a default
	// client with a 60s timeout.
	Client *http.Client
}

// Node wraps a server.Server with replication: it serves the /repl/*
// endpoints in front of the server's own API, installs the mutation
// gate (followers and fenced ex-leaders refuse writes), and — on
// followers — runs one tail goroutine per replicated dataset.
type Node struct {
	srv    *server.Server
	cfg    Config
	client *http.Client

	mu       sync.Mutex
	role     Role
	epoch    uint64
	fencedBy uint64 // epoch that fenced this node; 0 when unfenced
	promoted bool   // Promote ran (or is running)

	// stateMu serializes writes of the persisted replication state so
	// two concurrent persists cannot land on disk out of order. Always
	// taken before mu, never while holding it.
	stateMu sync.Mutex

	tailMu  sync.Mutex
	tails   map[string]*tail
	stop    chan struct{}
	started bool
	wg      sync.WaitGroup

	// Leader-side stream counters.
	streamReqs      atomic.Uint64
	snapshotsServed atomic.Uint64
	bytesServed     atomic.Uint64
}

// NewNode wraps srv as a replication node and installs the mutation
// gate and /stats replication block. Followers must then Start to
// bootstrap and begin tailing.
func NewNode(srv *server.Server, cfg Config) (*Node, error) {
	switch cfg.Role {
	case RoleLeader:
	case RoleFollower:
		if cfg.Leader == "" {
			return nil, fmt.Errorf("repl: follower needs a leader URL")
		}
		if cfg.DataDir == "" {
			return nil, fmt.Errorf("repl: follower needs a data dir")
		}
	default:
		return nil, fmt.Errorf("repl: unknown role %q", cfg.Role)
	}
	if cfg.PollInterval <= 0 {
		cfg.PollInterval = 250 * time.Millisecond
	}
	if cfg.MaxSegmentBytes <= 0 {
		cfg.MaxSegmentBytes = 4 << 20
	}
	if cfg.Epoch == 0 {
		cfg.Epoch = 1
	}
	client := cfg.Client
	if client == nil {
		client = &http.Client{Timeout: 60 * time.Second}
	}
	n := &Node{
		srv:    srv,
		cfg:    cfg,
		client: client,
		role:   cfg.Role,
		epoch:  cfg.Epoch,
		tails:  make(map[string]*tail),
		stop:   make(chan struct{}),
	}
	if cfg.DataDir != "" {
		// The persisted epoch and fence outlive the process: a leader
		// fenced at epoch N must restart fenced, and a promoted leader
		// must restart at its adopted epoch — not at the default — or a
		// failed-over cluster splits its brain on the first restart.
		st, err := loadState(cfg.DataDir)
		if err != nil {
			return nil, err
		}
		if st.Epoch > n.epoch {
			n.epoch = st.Epoch
		}
		n.fencedBy = st.FencedBy
	}
	srv.SetMutationGate(n.gate)
	srv.SetReplStats(func() any { return n.Stats() })
	srv.SetReplMetrics(func() server.ReplMetrics {
		st := n.Stats()
		m := server.ReplMetrics{
			Epoch:  st.Epoch,
			Leader: st.Role == RoleLeader,
			Fenced: st.Fenced,
		}
		if len(st.Tails) > 0 {
			m.Lag = make(map[string]uint64, len(st.Tails))
			for name, t := range st.Tails {
				m.Lag[name] = t.Lag
			}
		}
		return m
	})
	return n, nil
}

// persist writes the node's current epoch and fence to the data dir
// (a no-op for in-memory nodes).
func (n *Node) persist() error {
	if n.cfg.DataDir == "" {
		return nil
	}
	n.stateMu.Lock()
	defer n.stateMu.Unlock()
	n.mu.Lock()
	st := persistentState{Epoch: n.epoch, FencedBy: n.fencedBy}
	n.mu.Unlock()
	return saveState(n.cfg.DataDir, st)
}

// observeEpoch records a leader epoch seen on the replication stream
// and returns the highest epoch this node now knows of. A new high is
// adopted and persisted, so a follower restart cannot be talked back
// down by a stale ex-leader.
func (n *Node) observeEpoch(epoch uint64) uint64 {
	n.mu.Lock()
	known := n.epoch
	adopted := epoch > n.epoch
	if adopted {
		n.epoch = epoch
		known = epoch
	}
	n.mu.Unlock()
	if adopted {
		_ = n.persist() // best-effort; the in-memory high already guards this process
	}
	return known
}

// gate is the server's mutation gate: only an unfenced leader writes.
func (n *Node) gate() error {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.role != RoleLeader {
		return fmt.Errorf("repl: node is a follower (read-only); mutate on the leader")
	}
	if n.fencedBy > 0 {
		return fmt.Errorf("repl: leader fenced by epoch %d; mutate on the current leader", n.fencedBy)
	}
	return nil
}

// Handler routes /repl/* and delegates everything else to the wrapped
// server's API.
func (n *Node) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /repl/wal", n.handleWAL)
	mux.HandleFunc("GET /repl/snapshot", n.handleSnapshot)
	mux.HandleFunc("POST /repl/fence", n.handleFence)
	mux.HandleFunc("POST /repl/promote", n.handlePromote)
	mux.Handle("/", n.srv.Handler())
	return mux
}

// Role returns the node's current role.
func (n *Node) Role() Role {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.role
}

// Epoch returns the node's current leader epoch.
func (n *Node) Epoch() uint64 {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.epoch
}

// Stop halts the follower's tail goroutines (idempotent). It does not
// close the served datasets — the owning server shuts those down.
func (n *Node) Stop() {
	n.tailMu.Lock()
	defer n.tailMu.Unlock()
	n.stopLocked()
}

func (n *Node) stopLocked() {
	select {
	case <-n.stop:
	default:
		close(n.stop)
	}
	n.wg.Wait()
}

// handleFence serves POST /repl/fence: a newly promoted leader calls
// it on the old leader with its new epoch; an epoch above the node's
// own fences it (mutations refused) so a partitioned ex-leader cannot
// split the brain.
func (n *Node) handleFence(w http.ResponseWriter, r *http.Request) {
	var req struct {
		Epoch uint64 `json:"epoch"`
	}
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<16)).Decode(&req); err != nil {
		writeJSON(w, http.StatusBadRequest, map[string]any{"error": fmt.Sprintf("bad fence body: %v", err)})
		return
	}
	n.mu.Lock()
	fenced := req.Epoch > n.epoch && req.Epoch > n.fencedBy
	if fenced {
		n.fencedBy = req.Epoch
	}
	resp := map[string]any{"epoch": n.epoch, "fenced": n.fencedBy > 0, "fenced_by": n.fencedBy}
	n.mu.Unlock()
	if fenced {
		// Make the fence durable before acknowledging it: the promoted
		// leader counts on this node staying read-only across restarts.
		if err := n.persist(); err != nil {
			writeJSON(w, http.StatusInternalServerError, map[string]any{"error": fmt.Sprintf("persisting fence: %v", err)})
			return
		}
	}
	writeJSON(w, http.StatusOK, resp)
}

// PromoteResult reports a completed promotion.
type PromoteResult struct {
	// Epoch is the new leader epoch this node now writes under.
	Epoch uint64 `json:"epoch"`
	// Datasets maps each replicated dataset to the version promotion
	// drained it to.
	Datasets map[string]uint64 `json:"datasets"`
	// DrainedRecords counts the records applied during the final drain.
	DrainedRecords uint64 `json:"drained_records"`
	// LeaderReachable reports whether the old leader answered the drain
	// (false means promotion proceeded with the tail as-is).
	LeaderReachable bool `json:"leader_reachable"`
}

// handlePromote serves POST /repl/promote.
func (n *Node) handlePromote(w http.ResponseWriter, r *http.Request) {
	res, err := n.Promote(r.Context())
	if err != nil {
		writeJSON(w, http.StatusConflict, map[string]any{"error": err.Error()})
		return
	}
	writeJSON(w, http.StatusOK, res)
}

// Promote turns a follower into the leader: tails stop, every dataset
// drains what remains of the old leader's stream (best-effort — an
// unreachable leader does not block promotion), the node adopts an
// epoch above any it has seen, fences the old leader with it
// (best-effort), and starts accepting mutations.
func (n *Node) Promote(ctx context.Context) (*PromoteResult, error) {
	n.mu.Lock()
	if n.role != RoleFollower {
		n.mu.Unlock()
		return nil, fmt.Errorf("repl: node is already a leader (epoch %d)", n.epoch)
	}
	if n.promoted {
		n.mu.Unlock()
		return nil, fmt.Errorf("repl: promotion already in progress")
	}
	n.promoted = true
	n.mu.Unlock()

	n.tailMu.Lock()
	n.stopLocked()
	tails := make([]*tail, 0, len(n.tails))
	for _, t := range n.tails {
		tails = append(tails, t)
	}
	n.tailMu.Unlock()

	res := &PromoteResult{Datasets: make(map[string]uint64), LeaderReachable: true}
	n.mu.Lock()
	maxEpoch := n.epoch
	if n.fencedBy > maxEpoch {
		maxEpoch = n.fencedBy
	}
	n.mu.Unlock()
	for _, t := range tails {
		drained, reachable := n.drainTail(ctx, t)
		res.DrainedRecords += drained
		if !reachable {
			res.LeaderReachable = false
		}
		st := t.stats()
		if st.LeaderEpoch > maxEpoch {
			maxEpoch = st.LeaderEpoch
		}
		res.Datasets[t.name] = t.localVersion()
	}

	newEpoch := maxEpoch + 1
	// Adopt the epoch durably BEFORE fencing the old leader or taking
	// writes: a crash right after the fence must restart this node as
	// the epoch-N leader, not as a stale follower of a leader it fenced.
	if n.cfg.DataDir != "" {
		n.stateMu.Lock()
		err := saveState(n.cfg.DataDir, persistentState{Epoch: newEpoch})
		n.stateMu.Unlock()
		if err != nil {
			n.mu.Lock()
			n.promoted = false // leave the node retryable
			n.mu.Unlock()
			return nil, fmt.Errorf("repl: persisting promotion epoch: %w", err)
		}
	}
	n.fenceLeader(newEpoch)

	// The datasets are replicas no longer: normal maintenance
	// (compaction, snapshot folding) resumes, and Close folds the final
	// snapshot like any leader's.
	for _, t := range tails {
		t.mu.Lock()
		ds := t.ds
		t.mu.Unlock()
		if ds != nil {
			ds.SetReplica(false)
		}
	}

	n.mu.Lock()
	n.role = RoleLeader
	n.epoch = newEpoch
	n.fencedBy = 0 // the adopted epoch outranks any fence this node saw
	n.mu.Unlock()
	res.Epoch = newEpoch
	return res, nil
}

// drainTail polls a stopped tail until it is caught up with the
// leader, the leader stops answering, or ctx expires. It returns the
// records applied and whether the leader was reachable.
func (n *Node) drainTail(ctx context.Context, t *tail) (uint64, bool) {
	before := t.stats().Applied
	failures := 0
	for failures < 3 {
		select {
		case <-ctx.Done():
			return t.stats().Applied - before, true
		default:
		}
		caughtUp, err := n.pollOnce(t)
		if err != nil {
			failures++
			time.Sleep(50 * time.Millisecond)
			continue
		}
		failures = 0
		if caughtUp {
			return t.stats().Applied - before, true
		}
	}
	return t.stats().Applied - before, false
}

// fenceLeader best-effort posts the new epoch to the old leader.
func (n *Node) fenceLeader(epoch uint64) {
	if n.cfg.Leader == "" {
		return
	}
	body := strings.NewReader(fmt.Sprintf(`{"epoch":%d}`, epoch))
	req, err := http.NewRequest(http.MethodPost, n.cfg.Leader+"/repl/fence", body)
	if err != nil {
		return
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := n.client.Do(req)
	if err != nil {
		return // the old leader is gone; the epoch fence applies when it returns via operators
	}
	resp.Body.Close()
}

// NodeStats is the /stats "replication" block.
type NodeStats struct {
	Role     Role   `json:"role"`
	Epoch    uint64 `json:"epoch"`
	Fenced   bool   `json:"fenced,omitempty"`
	FencedBy uint64 `json:"fenced_by,omitempty"`
	// Leader is the upstream URL (followers only).
	Leader string `json:"leader,omitempty"`
	// Tails reports per-dataset tail progress (followers only).
	Tails map[string]TailStats `json:"tails,omitempty"`
	// Leader-side stream counters.
	StreamRequests  uint64 `json:"stream_requests,omitempty"`
	SnapshotsServed uint64 `json:"snapshots_served,omitempty"`
	BytesServed     uint64 `json:"bytes_served,omitempty"`
}

// TailStats is one dataset tail's progress.
type TailStats struct {
	// LeaderVersion and LocalVersion are the last observed leader
	// dataset version and the replica's current version; Lag is their
	// difference (0 when caught up).
	LeaderVersion uint64 `json:"leader_version"`
	LocalVersion  uint64 `json:"local_version"`
	Lag           uint64 `json:"lag"`
	// Offset and BaseVersion are the WAL byte cursor and the leader
	// snapshot version it is relative to.
	Offset      int64  `json:"offset"`
	BaseVersion uint64 `json:"base_version"`
	LeaderEpoch uint64 `json:"leader_epoch"`
	// Applied and Skipped count records; BytesShipped the WAL bytes
	// consumed; Resyncs the full snapshot re-bootstraps.
	Applied      uint64 `json:"applied_records"`
	Skipped      uint64 `json:"skipped_records"`
	BytesShipped uint64 `json:"bytes_shipped"`
	Resyncs      uint64 `json:"resyncs"`
	Polls        uint64 `json:"polls"`
	CaughtUp     bool   `json:"caught_up"`
	LastError    string `json:"last_error,omitempty"`
}

// Stats snapshots the node's replication state.
func (n *Node) Stats() NodeStats {
	n.mu.Lock()
	st := NodeStats{
		Role:     n.role,
		Epoch:    n.epoch,
		Fenced:   n.fencedBy > 0,
		FencedBy: n.fencedBy,
	}
	role := n.role
	n.mu.Unlock()
	st.StreamRequests = n.streamReqs.Load()
	st.SnapshotsServed = n.snapshotsServed.Load()
	st.BytesServed = n.bytesServed.Load()
	if role == RoleFollower {
		st.Leader = n.cfg.Leader
		st.Tails = make(map[string]TailStats)
		n.tailMu.Lock()
		tails := make([]*tail, 0, len(n.tails))
		for _, t := range n.tails {
			tails = append(tails, t)
		}
		n.tailMu.Unlock()
		for _, t := range tails {
			st.Tails[t.name] = t.stats()
		}
	}
	return st
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	body, err := json.Marshal(v)
	if err != nil {
		status = http.StatusInternalServerError
		body = []byte(fmt.Sprintf(`{"error":%q}`, err.Error()))
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_, _ = w.Write(body)
	_, _ = w.Write([]byte("\n"))
}
