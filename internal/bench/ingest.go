package bench

import (
	"context"
	"fmt"
	"time"

	"repro/internal/workload"
	"repro/paq"
)

// IngestConfig configures the continuous-ingest differential experiment
// (`benchrunner -exp ingest`): the live-dataset counterpart of the
// paper's static protocol, modeling streaming workloads — nightly
// telescope batches landing in the Galaxy table while package queries
// keep being served.
type IngestConfig struct {
	// Ops is the number of interleaved insert/delete operations applied
	// to the live session; 0 means 1000.
	Ops int
}

// IngestResult summarizes the experiment.
type IngestResult struct {
	Ops      int
	Inserted int
	Deleted  int
	// LiveRows is the live row count after the stream.
	LiveRows int
	// Bound is the session's reported quality bound (the maintained
	// partitioning behaves like an offline one with ω = its largest
	// radius); every Ratio must stay within it.
	Bound float64
	// Maint is the session's cumulative maintenance work. Rebuilds must
	// be zero: ingestion never repartitions on the hot path.
	Maint   paq.MaintStats
	Queries []DiffQuery
	Elapsed time.Duration
}

// Ingest applies a deterministic stream of interleaved inserts and
// deletes to a live Galaxy session (incremental partition maintenance
// on the hot path), then differentially checks every workload query:
// the maintained partitioning must solve to an objective within the
// reported quality bound of a partitioning rebuilt from scratch over
// the same final data, both sides must agree on feasibility, and the
// maintainer must report zero full repartitions. Any violation is an
// error.
func (e *Env) Ingest(ctx context.Context, cfg IngestConfig) (*IngestResult, error) {
	start := time.Now()
	if cfg.Ops <= 0 {
		cfg.Ops = 1000
	}
	base := e.cfg.GalaxyN
	full := workload.Galaxy(base+cfg.Ops, e.cfg.Seed)
	sess, err := e.openLive(full)
	if err != nil {
		return nil, fmt.Errorf("bench: ingest: %w", err)
	}

	res := &IngestResult{Ops: cfg.Ops}
	stream := newMutationStream(e.cfg.Seed, full, base, opMix{insert: 0.5, delete: 0.5}, base/2,
		sess.Rel().AllRows(), sessionSink{sess})
	if err := stream.run(ctx, cfg.Ops); err != nil {
		return nil, fmt.Errorf("bench: ingest: %w", err)
	}
	res.Inserted, res.Deleted = stream.inserted, stream.deleted
	res.LiveRows = sess.Rel().Live()
	res.Maint = sess.MaintStats()
	if res.Maint.Rebuilds != 0 {
		return res, fmt.Errorf("bench: ingest: %d full repartitions on the hot path (want 0)", res.Maint.Rebuilds)
	}

	// Rebuild from scratch over the identical final data, with the same
	// absolute τ as the maintained partitioning, so the differential
	// isolates maintenance drift from configuration drift.
	pi, err := sess.Partitioning()
	if err != nil {
		return res, fmt.Errorf("bench: ingest: %w", err)
	}
	rebuilt, err := paq.Open(paq.Table(sess.Rel().Subset("galaxy", sess.Rel().AllRows())),
		e.sessionOpts(
			paq.WithPartitionAttrs(e.attrs[Galaxy]...),
			paq.WithSeed(e.cfg.Seed),
			paq.WithMethod(paq.MethodSketchRefine),
			paq.WithTauTuples(pi.Tau),
		)...)
	if err != nil {
		return res, fmt.Errorf("bench: ingest: rebuild: %w", err)
	}

	fmt.Fprintf(e.cfg.Out, "Continuous ingest (Galaxy, %d rows → %d live after %d inserts + %d deletes)\n",
		base, res.LiveRows, res.Inserted, res.Deleted)
	fmt.Fprintf(e.cfg.Out, "maintenance: %d splits, %d merges, %d heals, %d rebuilds; %d groups\n",
		res.Maint.Splits, res.Maint.Merges, res.Maint.Heals, res.Maint.Rebuilds, pi.Groups)
	var violation error
	res.Queries, res.Bound, violation = e.solveDifferential(ctx, "maintained", "rebuilt", []*paq.Session{sess}, rebuilt, false)
	if violation != nil {
		violation = fmt.Errorf("bench: ingest: %w", violation)
	}
	res.Elapsed = time.Since(start)
	return res, violation
}
