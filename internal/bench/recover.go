package bench

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"time"

	"repro/internal/store"
	"repro/internal/workload"
	"repro/paq"
)

// RecoverConfig configures the crash-recovery differential experiment
// (`benchrunner -exp recover`): a durable Galaxy session and an
// in-memory twin absorb the same interleaved mutation stream; the
// durable one is crashed at a randomized point — mid-ingest, with a
// torn record appended to its WAL — and recovered from disk. The
// recovered session must be indistinguishable from the twin.
type RecoverConfig struct {
	// Ops is the minimum number of interleaved insert/delete/update
	// operations before the crash becomes possible; 0 means 1000. The
	// actual crash point adds a randomized tail of up to Ops/4 more.
	Ops int
	// Dir is the durability directory; empty means a fresh temp dir
	// (removed afterwards).
	Dir string
}

// RecoverResult summarizes the experiment.
type RecoverResult struct {
	// CrashAt is the number of acknowledged mutations when the crash
	// hit; SnapshotAt the op index of the mid-stream snapshot.
	CrashAt, SnapshotAt int
	Inserted, Deleted   int
	Updated             int
	LiveRows            int
	// ReplayedOps is the WAL suffix recovery replayed (everything after
	// the mid-stream snapshot).
	ReplayedOps uint64
	// Recover is the crash-to-serving time (snapshot load + replay +
	// partitioning warm-start); Rebuild the measured cost of the
	// alternative — reloading the final data and partitioning from
	// scratch. Speedup is Rebuild/Recover.
	Recover, Rebuild time.Duration
	Speedup          float64
	// Queries holds the solve differential; every objective equals the
	// twin's bit for bit.
	Queries []DiffQuery
	Elapsed time.Duration
}

// Recover runs the crash-recovery differential. Any divergence between
// the recovered session and the never-crashed twin — version, row
// contents, feasibility, an objective not bit-equal to the twin's, a lost
// acknowledged mutation, or a full repartition on the warm-start path —
// is an error.
func (e *Env) Recover(ctx context.Context, cfg RecoverConfig) (*RecoverResult, error) {
	start := time.Now()
	if cfg.Ops <= 0 {
		cfg.Ops = 1000
	}
	dir := cfg.Dir
	if dir == "" {
		var err error
		dir, err = os.MkdirTemp("", "paq-recover-*")
		if err != nil {
			return nil, err
		}
		defer os.RemoveAll(dir)
	}

	rng := rand.New(rand.NewSource(e.cfg.Seed))
	res := &RecoverResult{
		CrashAt:    cfg.Ops + 1 + rng.Intn(cfg.Ops/4+1),
		SnapshotAt: cfg.Ops/4 + rng.Intn(cfg.Ops/4+1),
	}
	base := e.cfg.GalaxyN
	full := workload.Galaxy(base+res.CrashAt, e.cfg.Seed)
	durable, err := e.openLive(full, paq.WithDurability(dir))
	if err != nil {
		return nil, fmt.Errorf("bench: recover: %w", err)
	}
	twin, err := e.openLive(full)
	if err != nil {
		return nil, fmt.Errorf("bench: recover: twin: %w", err)
	}

	// Identical interleaved stream into both sessions, with a mid-stream
	// snapshot: the durable side compacts + persists; the twin mirrors
	// the compaction so row indices and versions stay aligned.
	stream := newMutationStream(e.cfg.Seed, full, base, opMix{insert: 0.5, delete: 0.3}, base/2,
		durable.Rel().AllRows(), sessionSink{durable}, sessionSink{twin})
	if err := stream.run(ctx, res.SnapshotAt); err != nil {
		return nil, fmt.Errorf("bench: recover: %w", err)
	}
	if err := durable.Snapshot(); err != nil {
		return nil, fmt.Errorf("bench: recover: snapshot at op %d: %w", res.SnapshotAt, err)
	}
	if _, err := twin.Compact(); err != nil {
		return nil, fmt.Errorf("bench: recover: twin compact: %w", err)
	}
	stream.live = durable.Rel().AllRows()
	expectReplay := res.CrashAt - res.SnapshotAt
	if err := stream.run(ctx, expectReplay); err != nil {
		return nil, fmt.Errorf("bench: recover: after snapshot: %w", err)
	}
	res.Inserted, res.Deleted, res.Updated = stream.inserted, stream.deleted, stream.updated

	// CRASH: the durable session is dropped without Close or Snapshot —
	// everything after the mid-stream snapshot lives only in the WAL —
	// and a torn half-record is appended, as a kill mid-append would
	// leave behind.
	durable = nil
	walPath := store.WALPath(dir)
	f, err := os.OpenFile(walPath, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("bench: recover: tearing WAL: %w", err)
	}
	if _, err := f.Write([]byte{0x40, 0x00, 0x00, 0x00, 0xde, 0xad}); err != nil {
		f.Close()
		return nil, err
	}
	f.Close()

	t0 := time.Now()
	rec, err := paq.Open(nil, e.liveOpts(paq.WithDurability(dir))...)
	if err != nil {
		return nil, fmt.Errorf("bench: recover: reopening crashed store: %w", err)
	}
	defer rec.Close()
	res.Recover = time.Since(t0)
	res.LiveRows = rec.Rel().Live()

	// --- zero acknowledged-mutation loss --------------------------------
	if err := relationsEqual("bench: recover: recovered session", rec.Rel(), twin.Rel()); err != nil {
		return res, err
	}

	// --- warm start, not rebuild ----------------------------------------
	ds := rec.DurStats()
	res.ReplayedOps = ds.ReplayedOps
	if ds.ReplayedOps != uint64(expectReplay) {
		return res, fmt.Errorf("bench: recover: replayed %d ops, want %d", ds.ReplayedOps, expectReplay)
	}
	if ds.WarmPartitionings == 0 {
		return res, fmt.Errorf("bench: recover: no partitioning warm-started from the snapshot")
	}
	pi, err := rec.Partitioning()
	if err != nil {
		return res, fmt.Errorf("bench: recover: %w", err)
	}
	if pi.BuildMS != 0 {
		return res, fmt.Errorf("bench: recover: partitioning reports a %gms offline build — it was rebuilt, not warm-started", pi.BuildMS)
	}
	if rb := rec.MaintStats().Rebuilds; rb != 0 {
		return res, fmt.Errorf("bench: recover: %d full repartitions on the warm-start path, want 0", rb)
	}

	// --- the avoided cost: reload + repartition from scratch ------------
	t0 = time.Now()
	if _, err := paq.Open(paq.Table(rec.Rel().Subset("galaxy", rec.Rel().AllRows())),
		e.liveOpts(paq.WithTauTuples(pi.Tau))...); err != nil {
		return res, fmt.Errorf("bench: recover: rebuild: %w", err)
	}
	res.Rebuild = time.Since(t0)
	if res.Recover > 0 {
		res.Speedup = float64(res.Rebuild) / float64(res.Recover)
	}

	// --- solve differential against the twin ----------------------------
	fmt.Fprintf(e.cfg.Out, "Crash recovery (Galaxy, %d rows; crash after %d acked ops, snapshot at op %d)\n",
		base, res.CrashAt, res.SnapshotAt)
	fmt.Fprintf(e.cfg.Out, "recovered %d live rows at version %d: %d WAL ops replayed in %v (rebuild from scratch: %v, %.1fx)\n",
		res.LiveRows, rec.Version(), res.ReplayedOps, res.Recover.Round(time.Millisecond),
		res.Rebuild.Round(time.Millisecond), res.Speedup)
	var violation error
	res.Queries, _, violation = e.solveDifferential(ctx, "recovered", "twin", []*paq.Session{rec}, twin, true)
	if violation != nil {
		violation = fmt.Errorf("bench: recover: %w", violation)
	}
	res.Elapsed = time.Since(start)
	return res, violation
}
