package repl

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"time"

	"repro/internal/server"
	"repro/internal/store"
	"repro/paq"
)

// errGap reports a streamed record whose PreVersion is ahead of the
// replica's version: bytes were lost between leader and replica, and
// applying past the hole would corrupt the dataset. Recovery is a full
// resync from the current leader snapshot.
var errGap = errors.New("repl: stream gap (record ahead of replica version)")

// tail is one dataset's replication state on a follower.
type tail struct {
	name string
	dir  string

	mu sync.Mutex
	ds *server.Dataset // current registered replica (apply target)
	// haveCursor gates the byte-offset fast path; without it (fresh
	// boot, after a restart, after resync) the tail resumes by its own
	// dataset version — the durable cursor.
	haveCursor bool
	offset     int64
	base       uint64 // leader snapshot version the offset is relative to

	leaderVersion uint64
	leaderEpoch   uint64
	applied       uint64
	skipped       uint64
	bytes         uint64
	resyncs       uint64
	polls         uint64
	caughtUp      bool
	lastErr       string
}

func (t *tail) localVersion() uint64 {
	t.mu.Lock()
	ds := t.ds
	t.mu.Unlock()
	if ds == nil {
		return 0
	}
	return ds.Version()
}

func (t *tail) stats() TailStats {
	t.mu.Lock()
	st := TailStats{
		LeaderVersion: t.leaderVersion,
		Offset:        t.offset,
		BaseVersion:   t.base,
		LeaderEpoch:   t.leaderEpoch,
		Applied:       t.applied,
		Skipped:       t.skipped,
		BytesShipped:  t.bytes,
		Resyncs:       t.resyncs,
		Polls:         t.polls,
		CaughtUp:      t.caughtUp,
		LastError:     t.lastErr,
	}
	ds := t.ds
	t.mu.Unlock()
	if ds != nil {
		st.LocalVersion = ds.Version()
	}
	if st.LeaderVersion > st.LocalVersion {
		st.Lag = st.LeaderVersion - st.LocalVersion
	}
	return st
}

// Start bootstraps a follower: it discovers the datasets to replicate,
// installs a leader snapshot for any dataset without local state,
// opens every replica through the server's recovery path (warm
// partitionings included), registers them for read/solve traffic, and
// launches one tail goroutine per dataset. Datasets bootstrap and tail
// in parallel — follower catch-up time follows the largest dataset,
// not the sum.
func (n *Node) Start() error {
	if n.Role() != RoleFollower {
		return nil // leaders have nothing to tail
	}
	names := n.cfg.Datasets
	if len(names) == 0 {
		var err error
		if names, err = n.discoverDatasets(); err != nil {
			return err
		}
	}
	if len(names) == 0 {
		return fmt.Errorf("repl: leader %s lists no datasets", n.cfg.Leader)
	}

	var wg sync.WaitGroup
	errs := make([]error, len(names))
	tails := make([]*tail, len(names))
	for i, name := range names {
		wg.Add(1)
		go func(i int, name string) {
			defer wg.Done()
			t := &tail{name: name, dir: filepath.Join(n.cfg.DataDir, name)}
			if err := n.bootstrap(t); err != nil {
				errs[i] = fmt.Errorf("repl: bootstrap %s: %w", name, err)
				return
			}
			tails[i] = t
		}(i, name)
	}
	wg.Wait()
	for _, err := range errs {
		if err == nil {
			continue
		}
		// A sibling goroutine may already have opened and registered its
		// dataset; without a tail it would serve stale, never-updating
		// data and hold its store's file handles forever. Undo them.
		for _, t := range tails {
			if t == nil {
				continue
			}
			n.srv.Deregister(t.name)
			t.mu.Lock()
			ds := t.ds
			t.mu.Unlock()
			if ds != nil {
				_ = ds.Close()
			}
		}
		return err
	}

	n.tailMu.Lock()
	n.started = true
	for _, t := range tails {
		n.tails[t.name] = t
		n.wg.Add(1)
		go n.runTail(t)
	}
	n.tailMu.Unlock()
	return nil
}

// discoverDatasets asks the leader what it serves.
func (n *Node) discoverDatasets() ([]string, error) {
	resp, err := n.client.Get(n.cfg.Leader + "/datasets")
	if err != nil {
		return nil, fmt.Errorf("repl: listing leader datasets: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("repl: listing leader datasets: HTTP %d", resp.StatusCode)
	}
	var infos []server.DatasetInfo
	if err := json.NewDecoder(resp.Body).Decode(&infos); err != nil {
		return nil, fmt.Errorf("repl: decoding leader datasets: %w", err)
	}
	names := make([]string, 0, len(infos))
	for _, info := range infos {
		names = append(names, info.Name)
	}
	return names, nil
}

// bootstrap makes a tail serveable: local state is recovered if
// present (the restart path — nothing is re-shipped), otherwise the
// leader's snapshot is fetched and installed, and the replica opens
// through the same store recovery a leader restart uses.
func (n *Node) bootstrap(t *tail) error {
	if !store.HasState(t.dir) {
		data, err := n.fetchSnapshot(t.name)
		if err != nil {
			return err
		}
		if err := store.InstallSnapshot(t.dir, data); err != nil {
			return err
		}
	}
	return n.openReplica(t)
}

// openReplica opens the tail's dataset from its local state, registers
// it, and makes it the one the tail applies to, with no cursor.
func (n *Node) openReplica(t *tail) error {
	cfg := n.cfg.Dataset
	cfg.DataDir = n.cfg.DataDir
	ds, err := server.NewDataset(t.name, nil, cfg)
	if err != nil {
		return err
	}
	// The replica mark keeps the dataset's physical row layout pinned to
	// the leader's: no local compaction, no local snapshot folding, either
	// of which would renumber the rows the leader's stream addresses.
	ds.SetReplica(true)
	n.srv.Register(ds)
	t.mu.Lock()
	t.ds = ds
	t.haveCursor = false
	t.mu.Unlock()
	return nil
}

// fetchSnapshot downloads the leader's current snapshot for a dataset.
func (n *Node) fetchSnapshot(name string) ([]byte, error) {
	resp, err := n.client.Get(n.cfg.Leader + "/repl/snapshot?dataset=" + name)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("snapshot fetch: HTTP %d", resp.StatusCode)
	}
	return io.ReadAll(resp.Body)
}

// runTail is one dataset's replication loop: poll, apply, repeat —
// immediately while the stream has data, at the poll interval once
// caught up, with a short backoff after errors.
func (n *Node) runTail(t *tail) {
	defer n.wg.Done()
	for {
		select {
		case <-n.stop:
			return
		default:
		}
		caughtUp, err := n.pollOnce(t)
		var wait time.Duration
		switch {
		case err != nil:
			wait = n.cfg.PollInterval
			if wait > 200*time.Millisecond {
				wait = 200 * time.Millisecond
			}
		case caughtUp:
			wait = n.cfg.PollInterval
		default:
			continue // more records are likely waiting
		}
		select {
		case <-n.stop:
			return
		case <-time.After(wait):
		}
	}
}

// pollOnce fetches and applies one WAL segment. It reports whether the
// tail is caught up with the leader's shipped log.
func (n *Node) pollOnce(t *tail) (bool, error) {
	t.mu.Lock()
	t.polls++
	url := n.cfg.Leader + "/repl/wal?dataset=" + t.name
	if t.haveCursor {
		url += "&from_offset=" + strconv.FormatInt(t.offset, 10) +
			"&base_version=" + strconv.FormatUint(t.base, 10)
	} else {
		url += "&from_version=" + strconv.FormatUint(t.ds.Version(), 10)
	}
	sess := t.ds.Session()
	t.mu.Unlock()

	fail := func(err error) (bool, error) {
		t.mu.Lock()
		t.lastErr = err.Error()
		t.caughtUp = false
		t.mu.Unlock()
		return false, err
	}

	resp, err := n.client.Get(url)
	if err != nil {
		return fail(err)
	}
	defer resp.Body.Close()
	switch resp.StatusCode {
	case http.StatusOK:
	case http.StatusConflict:
		// The leader snapshotted past our cursor (or our version predates
		// its log): re-bootstrap from the current snapshot.
		io.Copy(io.Discard, io.LimitReader(resp.Body, 1<<16))
		if err := n.resyncTail(t); err != nil {
			return fail(err)
		}
		return false, nil
	default:
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<10))
		return fail(fmt.Errorf("repl: %s: HTTP %d: %s", t.name, resp.StatusCode, body))
	}

	start, err1 := strconv.ParseInt(resp.Header.Get(hdrStartOffset), 10, 64)
	end, err2 := strconv.ParseInt(resp.Header.Get(hdrEndOffset), 10, 64)
	base, err3 := strconv.ParseUint(resp.Header.Get(hdrBaseVersion), 10, 64)
	leaderVer, err4 := strconv.ParseUint(resp.Header.Get(hdrLeaderVersion), 10, 64)
	epoch, err5 := strconv.ParseUint(resp.Header.Get(hdrEpoch), 10, 64)
	for _, err := range []error{err1, err2, err3, err4, err5} {
		if err != nil {
			return fail(fmt.Errorf("repl: %s: bad stream headers: %w", t.name, err))
		}
	}

	// An epoch below the highest this node has seen means the stream
	// comes from a fenced ex-leader (or a leader that lost its epoch in
	// a restart): applying it would silently diverge from the current
	// leader. Refuse before any byte is applied; the operator repoints
	// the follower via the surfaced error.
	if known := n.observeEpoch(epoch); epoch < known {
		return fail(fmt.Errorf("repl: %s: leader epoch regressed (%d < %d); refusing stale stream — repoint this follower at the current leader", t.name, epoch, known))
	}

	consumed, applied, skipped, aerr := applyStream(sess, resp.Body)

	t.mu.Lock()
	t.offset = start + consumed
	t.base = base
	t.haveCursor = true
	t.leaderVersion = leaderVer
	t.leaderEpoch = epoch
	t.applied += uint64(applied)
	t.skipped += uint64(skipped)
	t.bytes += uint64(consumed)
	local := t.ds.Version()
	caughtUp := t.offset >= end && local >= leaderVer
	t.caughtUp = caughtUp && aerr == nil
	if aerr == nil {
		t.lastErr = ""
	}
	t.mu.Unlock()

	if aerr != nil {
		if errors.Is(aerr, errGap) || errors.Is(aerr, store.ErrCorrupt) {
			// The stream skipped or mangled bytes; the only safe recovery
			// is a fresh snapshot.
			if err := n.resyncTail(t); err != nil {
				return fail(err)
			}
			return false, nil
		}
		return fail(aerr)
	}
	return caughtUp, nil
}

// applyStream reads CRC-framed records from r and applies them to the
// replica session, gated by version: a record below the replica's
// version was already applied (skipped — replay idempotence), an exact
// match applies through the public mutation path (WAL, maintenance,
// and cache invalidation included), and a record ahead of the replica
// is errGap. A stream cut mid-frame ends the batch cleanly — consumed
// counts only whole frames, so the caller's cursor never lands inside
// a record.
func applyStream(sess *paq.Session, r io.Reader) (consumed int64, applied, skipped int, err error) {
	schema := sess.Rel().Schema()
	for {
		payload, frameLen, ferr := store.ReadFrame(r)
		if ferr != nil {
			if ferr == io.EOF || ferr == io.ErrUnexpectedEOF {
				return consumed, applied, skipped, nil
			}
			return consumed, applied, skipped, ferr
		}
		rec, derr := store.DecodeRecord(schema, payload)
		if derr != nil {
			return consumed, applied, skipped, derr
		}
		version := sess.Version()
		switch {
		case rec.PreVersion < version:
			skipped++
		case rec.PreVersion > version:
			return consumed, applied, skipped,
				fmt.Errorf("%w: record at version %d, replica at %d", errGap, rec.PreVersion, version)
		default:
			if aerr := applyRecord(sess, rec); aerr != nil {
				return consumed, applied, skipped, fmt.Errorf("repl: applying %s at version %d: %w", rec.Kind, rec.PreVersion, aerr)
			}
			applied++
		}
		consumed += frameLen
	}
}

// applyRecord replays one record through the replica's public mutation
// path — the same code live leader mutations run, so the replica's own
// WAL, partition maintenance, and cache invalidation all happen
// exactly as they did on the leader.
func applyRecord(sess *paq.Session, rec *store.Record) error {
	var err error
	switch rec.Kind {
	case store.KindInsert:
		_, _, err = sess.InsertRows(rec.Rows)
	case store.KindDelete:
		_, err = sess.DeleteRows(rec.Indices)
	case store.KindUpdate:
		_, err = sess.UpdateRows(rec.Indices, rec.Rows)
	default:
		err = fmt.Errorf("unknown record kind %d", rec.Kind)
	}
	return err
}

// resyncTail rebuilds a replica from the leader's current snapshot:
// the old store is closed and removed, the snapshot installed, and the
// dataset re-opened and re-registered. Solves in flight on the old
// session finish against its in-memory state.
func (n *Node) resyncTail(t *tail) error {
	data, err := n.fetchSnapshot(t.name)
	if err != nil {
		return fmt.Errorf("repl: resync %s: %w", t.name, err)
	}
	t.mu.Lock()
	old := t.ds
	t.mu.Unlock()
	if old != nil {
		// Release the store's file handles; the flush target is about to
		// be deleted, so the error is irrelevant.
		_ = old.Close()
	}
	if err := os.RemoveAll(t.dir); err != nil {
		return fmt.Errorf("repl: resync %s: %w", t.name, err)
	}
	if err := store.InstallSnapshot(t.dir, data); err != nil {
		return fmt.Errorf("repl: resync %s: %w", t.name, err)
	}
	if err := n.openReplica(t); err != nil {
		return fmt.Errorf("repl: resync %s: %w", t.name, err)
	}
	t.mu.Lock()
	t.resyncs++
	t.mu.Unlock()
	return nil
}
