package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/store"
	"repro/paq"
)

// fsyncPolicy states the flush policy of every durable session the
// benchmark opens: the store's default, which the benchmark does not
// change.
const fsyncPolicy = "store default: group commit, every batch fsynced before it is acknowledged"

// ingestTemplates are the statements the ingest workload interleaves
// with its batches: Q5 and Q7. Their refine ILPs close at the root on
// every mutated table tried, so a solve costs scan + prepare +
// partition view + a cache miss, which is what this workload is for.
// The others do not stay that way on a table the seed's batches keep
// changing: with all seven in the loop (three seeds, 48 solves each) 2
// to 5 solves were false-infeasible, p95 was 0.7–0.9 s and throughput
// 1 170–1 890 rows/s; Q1 alone went from 7 ms to 345 ms, and once to
// 1.9 s, after some 220 batches. The benchmark's contract wants
// workloads on which no operation fails, and no number survives that.
// What all seven do on the mutated table is observed once per traced
// run instead (see sweep).
var ingestTemplates = []int{4, 6}

// serveTemplates are the templates the serve workload draws its pool
// variants and never-seen variants from: Q1, Q2, Q4, Q5, Q7, which on
// the unmutated table solve in 4–22 ms whatever the slack. A widened Q3
// or Q6 costs anything from 45 ms to 3.8 s.
var serveTemplates = []int{0, 1, 3, 4, 6}

func (e *env) lightQueries() []query {
	qs := make([]query, len(ingestTemplates))
	for i, t := range ingestTemplates {
		qs[i] = e.queries[t]
	}
	return qs
}

// durableOpen opens a fresh durable session over the CSV file in a new
// store directory and prepares the light statements: the ingest
// workload's set-up.
func (e *env) durableOpen(opts []paq.Option) (*paq.Session, []*paq.Stmt, string, error) {
	dir, err := e.scratch("store")
	if err != nil {
		return nil, nil, "", err
	}
	sess, err := paq.Open(paq.CSV(e.csv), append(opts, paq.WithDurability(dir))...)
	if err != nil {
		return nil, nil, "", err
	}
	stmts, err := prepareAll(sess, e.lightQueries())
	if err != nil {
		_ = sess.Close() // the Prepare error is the one to report
		return nil, nil, "", err
	}
	return sess, stmts, dir, nil
}

// durPhase is what a mutation phase — and, where it ran, the crash and
// recovery after it — measured.
type durPhase struct {
	acks     []time.Duration
	ackKinds []mutationKind
	blocks   []block      // per ingestBlock batches: successful solves, wall of acks and solves
	rows     int          // rows acknowledged
	gaps     []float64    // objective gap of each statement before the first batch
	acked    uint64       // the ledger: the version the last batch was acknowledged at
	live     int          // the ledger: live rows after the last batch
	stats    paq.DurStats // after the last batch

	recover    time.Duration
	replayNoop time.Duration // traced: store.Open + Replay with a no-op apply
	replayOps  int
	snapWrite  time.Duration // traced: Session.Snapshot on the recovered session
	snapBytes  int64
}

// rowRate is the phase's ingest throughput: rows acknowledged ÷ wall
// time, interleaved solves included, of the fastest block (see
// queryMetrics for why the fastest).
func (ph *durPhase) rowRate() float64 {
	best := 0.0
	for _, b := range ph.blocks {
		if b.wall > 0 {
			best = max(best, float64(ingestBlock*batchRows)/b.wall.Seconds())
		}
	}
	return best
}

// apply sends one batch to the session and returns the version it was
// acknowledged at.
func apply(sess *paq.Session, b batch) (uint64, error) {
	switch b.kind {
	case mutInsert:
		_, v, err := sess.InsertRows(b.vals)
		return v, err
	case mutDelete:
		return sess.DeleteRows(b.rows)
	default:
		return sess.UpdateRows(b.rows, b.vals)
	}
}

// mutate runs the mutation phase on a durable session: one writer
// applies `batches` seeded batches in a closed loop, with one
// SketchRefine Execute after every solveEvery-th batch when solveEvery
// > 0. With a recorder, every call is a span and the solves run with
// paq.WithTrace.
func (e *env) mutate(ctx context.Context, rec *recorder, sess *paq.Session, stmts []*paq.Stmt, batches, solveEvery int) (*durPhase, error) {
	light := e.lightQueries()
	stream := newMutationStream(e.rel.Len(), batches, e.cfg.seed)
	all := make([]batch, batches)
	for k := range all {
		all[k] = stream.batch(k)
	}
	ph := &durPhase{live: stream.liveRows(), blocks: make([]block, max(1, batches/ingestBlock))}
	// Quality is taken before the first batch, on the table as generated:
	// one Execute of each statement against its LP bound. On the mutated
	// table the gap is a property of the seed's batches, not of the
	// program (ten seeds: 0.22 to 2.5), so it cannot carry a bound.
	if solveEvery > 0 {
		snap := sess.Rel().Snapshot()
		for i, st := range stmts {
			res, err := st.Execute(ctx)
			if err != nil {
				return nil, fmt.Errorf("%s before the first batch: %w", light[i].name, err)
			}
			t0 := time.Now()
			z, err := e.rootLP(ctx, snap, light[i].paql)
			e.reference += time.Since(t0)
			if err != nil {
				return nil, fmt.Errorf("reference LP for %s: %w", light[i].name, err)
			}
			ph.gaps = append(ph.gaps, relGap(res.Objective, z))
		}
		clear(e.specs)
	}
	runtime.GC()

	ph.acked = sess.Version()
	solves := 0
	for k, b := range all {
		if ctx.Err() != nil {
			return nil, ctx.Err()
		}
		blk := &ph.blocks[min(k/ingestBlock, len(ph.blocks)-1)]
		if rec == nil && k%ingestBlock == 0 {
			e.blockStart()
		}
		sp := rec.begin(nil, rec.newOp(), "paq.mutate."+b.kind.String())
		t0 := time.Now()
		v, err := apply(sess, b)
		d := time.Since(t0)
		sp.end()
		blk.wall += d
		e.res.attempted++
		if err != nil {
			e.res.fail("mutate_" + b.kind.String())
			return nil, fmt.Errorf("batch %d (%s): %w", k, b.kind, err)
		}
		ph.acked = v
		ph.rows += batchRows
		ph.acks = append(ph.acks, d)
		ph.ackKinds = append(ph.ackKinds, b.kind)

		if solveEvery > 0 && (k+1)%solveEvery == 0 {
			e.solveBetween(ctx, rec, sess, stmts, solves%len(stmts), blk)
			solves++
		}
		if rec == nil && (k+1)%ingestBlock == 0 {
			e.blockEnd()
		}
	}
	ph.stats = sess.DurStats()
	return ph, nil
}

// solveBetween is one interleaved solve of the mutation phase: statement
// i of the light statements, on the table as the last batch left it.
func (e *env) solveBetween(ctx context.Context, rec *recorder, sess *paq.Session, stmts []*paq.Stmt, i int, blk *block) {
	s := solved{q: i}
	if rec == nil {
		t0 := time.Now()
		s.res, s.err = stmts[i].Execute(ctx)
		s.latency = time.Since(t0)
	} else {
		op := rec.newOp()
		sp := rec.begin(nil, op, "paq.execute")
		s.res, s.err = stmts[i].Execute(ctx, paq.WithTrace())
		s.latency = sp.end()
		if s.err == nil {
			sp.attach(op, s.res.Trace())
		}
	}
	blk.wall += s.latency
	if !e.account(s) {
		return
	}
	blk.ok = append(blk.ok, s.latency)
	// Checked at once, not after the phase: holding a snapshot per solve
	// would pin every copy-on-write generation of the table and the
	// benchmark would be measuring its own memory.
	s.snap = sess.Rel().Snapshot()
	e.checkSolves(e.lightQueries(), []solved{s})
	clear(e.specs)
}

// sweep executes each of the seven templates once on the table as the
// batches left it and counts the outcomes by class. It is an
// observation beside the timed loop, which runs only the light
// statements: the counts go to the record's "observed" and to
// sketchrefine.false_infeasible, not to attempted and failed.
func (e *env) sweep(ctx context.Context, sess *paq.Session) error {
	snap := sess.Rel().Snapshot()
	for _, q := range e.queries {
		st, err := sess.Prepare(q.paql)
		if err != nil {
			return fmt.Errorf("sweep: prepare %s: %w", q.name, err)
		}
		res, err := st.Execute(ctx)
		switch {
		case err != nil:
			e.res.observed[classify(err)]++
		case res.Truncated:
			e.res.observed["truncated"]++
		default:
			e.res.observed["ok"]++
			if err := e.checkPackage(snap, res.Version, q, res.Rows, res.Mult, res.Objective); err != nil {
				e.res.violate("sweep: %v", err)
			}
		}
	}
	clear(e.specs)
	return ctx.Err()
}

// crashRecover crashes the session the phase ran on and times its
// recovery. The session is dropped without Close or Snapshot, so every
// batch lives only in the WAL, and a torn half-record is appended as a
// kill in the middle of an append would leave it. With a recorder the
// recovery is split by a no-op replay before it and a snapshot after it.
func (e *env) crashRecover(rec *recorder, dir string, opts []paq.Option, ph *durPhase) error {
	f, err := os.OpenFile(store.WALPath(dir), os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("tearing the WAL: %w", err)
	}
	_, werr := f.Write([]byte{0x40, 0x00, 0x00, 0x00, 0xde, 0xad})
	if cerr := f.Close(); werr == nil {
		werr = cerr
	}
	if werr != nil {
		return fmt.Errorf("tearing the WAL: %w", werr)
	}

	if rec != nil {
		if err := e.replayNoop(rec, dir, ph); err != nil {
			return err
		}
	}

	e.res.attempted++
	sp := rec.begin(nil, rec.newOp(), "paq.recover")
	t0 := time.Now()
	back, err := paq.Open(nil, append(opts, paq.WithDurability(dir))...)
	ph.recover = time.Since(t0)
	sp.end()
	if err != nil {
		e.res.fail("recover")
		return fmt.Errorf("recovery: %w", err)
	}
	if v, live := back.Version(), back.Rel().Live(); v != ph.acked || live != ph.live {
		e.res.violate("recovered version %d with %d live rows; %d and %d were acknowledged", v, live, ph.acked, ph.live)
	}
	if rec != nil {
		sp := rec.begin(nil, rec.newOp(), "store.snapshot_write")
		err := back.Snapshot()
		ph.snapWrite = sp.end()
		if err != nil {
			_ = back.Close() // the Snapshot error is the one to report
			return fmt.Errorf("snapshot: %w", err)
		}
		ph.snapBytes = snapshotBytes(dir)
	}
	if err := back.Close(); err != nil {
		return fmt.Errorf("closing the recovered session: %w", err)
	}
	return nil
}

// replayNoop times store.Open plus a replay of the crashed WAL that
// decodes every record and applies none: the decode-and-I/O share of
// recovery.
func (e *env) replayNoop(rec *recorder, dir string, ph *durPhase) error {
	sp := rec.begin(nil, rec.newOp(), "store.replay")
	st, err := store.Open(dir)
	if err != nil {
		return fmt.Errorf("store.Open: %w", err)
	}
	err = st.Replay(e.rel.Schema(), func(r *store.Record) error {
		ph.replayOps += r.Ops()
		return nil
	})
	ph.replayNoop = sp.end()
	if cerr := st.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("no-op replay: %w", err)
	}
	return nil
}

// snapshotBytes is the size of the store's snapshot file.
func snapshotBytes(dir string) int64 {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return 0
	}
	var n int64
	for _, ent := range ents {
		if filepath.Ext(ent.Name()) == ".paqsnap" {
			if fi, err := ent.Info(); err == nil {
				n += fi.Size()
			}
		}
	}
	return n
}

// ingestMetrics reports the write-path metrics of a mutation phase and
// the recovery after it. They are what a caller of the ingest workload
// sees, yet they are in the per-layer list: the driver has every
// workload report every end-to-end metric, and the query workloads have
// no write path to take them from.
func (e *env) ingestMetrics(ph *durPhase) {
	acks := make([]float64, len(ph.acks))
	for i, d := range ph.acks {
		acks[i] = ms(d)
	}
	e.res.setN("ingest_rows_per_s", ph.rowRate(), "1/s", len(acks))
	e.res.setN("ingest_ack_p50_ms", median(acks), "ms", len(acks))
	e.res.setN("ingest_ack_p95_ms", percentile(acks, 95), "ms", len(acks))
	e.res.set("recover_s", secs(ph.recover), "s")
	e.res.set("wal_bytes_per_row", float64(ph.stats.WALBytes)/float64(ph.rows), "B")
}

// runIngest is the ingest workload. An untraced run is set-up, the
// mutation phase and a clean Close; a traced run cuts the phase to a
// third, crashes and recovers it, and then repeats all of it under the
// recorder.
func (e *env) runIngest(ctx context.Context) error {
	if err := e.makeInputs(e.sz.TableRows); err != nil {
		return err
	}
	// Set-up: CSV load, partition build, store creation with its baseline
	// snapshot, Prepare. The solution cache stays on: every batch bumps
	// the version, so every interleaved solve is a miss that invalidates.
	opts := sketchOptions()
	before, after := splitSetups(e.sz.Setups)
	var sess *paq.Session
	var stmts []*paq.Stmt
	var dir string
	var setupTimes []time.Duration
	// discard closes a set-up's session and removes its store, outside
	// the timed interval: its WAL and snapshot must not stay open, nor its
	// table stay in memory.
	discard := func(sess *paq.Session, dir string) error {
		if err := sess.Close(); err != nil {
			return fmt.Errorf("set-up: closing a session: %w", err)
		}
		return os.RemoveAll(dir)
	}
	for k := 0; k < before; k++ {
		if sess != nil {
			if err := discard(sess, dir); err != nil {
				return err
			}
		}
		t0 := time.Now()
		s, st, d, err := e.durableOpen(opts)
		if err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
		setupTimes = append(setupTimes, time.Since(t0))
		sess, stmts, dir = s, st, d
	}

	batches := e.sz.IngestBatches
	if e.rec != nil {
		batches = max(ingestBlock, batches/3/ingestBlock*ingestBlock)
	}
	ph, err := e.mutate(ctx, nil, sess, stmts, batches, e.sz.SolveEvery)
	if err != nil {
		_ = sess.Close() // the phase's error is the one to report
		return err
	}
	e.queryMetrics(true, ph.blocks)
	e.res.setN("objective_gap", mean(ph.gaps), "ratio", len(ph.gaps))
	e.memMetric()
	e.sessionCounters(sess)
	if e.rec == nil {
		if err := sess.Close(); err != nil {
			return err
		}
		for k := 0; k < after; k++ {
			t0 := time.Now()
			s, _, d, err := e.durableOpen(opts)
			if err != nil {
				return fmt.Errorf("set-up: %w", err)
			}
			setupTimes = append(setupTimes, time.Since(t0))
			if err := discard(s, d); err != nil {
				return err
			}
		}
	}
	e.setupMetric(setupTimes)
	if e.rec == nil {
		return nil
	}

	if err := e.crashRecover(nil, dir, opts, ph); err != nil {
		return err
	}
	e.ingestMetrics(ph)

	// The traced twin: the same batches on a fresh durable session, every
	// call under the benchmark's recorder and every solve with
	// paq.WithTrace; then the sweep, the crash and the split recovery.
	sess, stmts, dir, err = e.durableOpen(opts)
	if err != nil {
		return fmt.Errorf("traced twin open: %w", err)
	}
	twin, err := e.mutate(ctx, e.rec, sess, stmts, batches, e.sz.SolveEvery)
	if err == nil {
		err = e.sweep(ctx, sess)
	}
	if err != nil {
		_ = sess.Close() // the twin's error is the one to report
		return fmt.Errorf("traced twin: %w", err)
	}
	if err := e.crashRecover(e.rec, dir, opts, twin); err != nil {
		return fmt.Errorf("traced twin: %w", err)
	}
	e.traceOverhead(ph.rowRate(), twin.rowRate())
	e.durLayer(twin)
	e.untracedAckMS = make(map[mutationKind]float64)
	byKind := make(map[mutationKind][]float64)
	for i, d := range ph.acks {
		byKind[ph.ackKinds[i]] = append(byKind[ph.ackKinds[i]], ms(d))
	}
	for k, v := range byKind {
		e.untracedAckMS[k] = median(v)
	}
	return nil
}

// ladderDurable is the ladder's rung for the write path on the query
// workloads, which have none of their own: a short durable SketchRefine
// session over the workload's table, batches without solves, a crash
// and a split recovery.
func (e *env) ladderDurable(ctx context.Context) error {
	opts := sketchOptions()
	sess, stmts, dir, err := e.durableOpen(opts)
	if err != nil {
		return fmt.Errorf("durable probe open: %w", err)
	}
	ph, err := e.mutate(ctx, e.rec, sess, stmts, e.sz.ProbeBatches, 0)
	if err != nil {
		_ = sess.Close() // the probe's error is the one to report
		return fmt.Errorf("durable probe: %w", err)
	}
	if err := e.crashRecover(e.rec, dir, opts, ph); err != nil {
		return fmt.Errorf("durable probe: %w", err)
	}
	e.ingestMetrics(ph)
	e.durLayer(ph)
	return nil
}
