package bench

import (
	"context"
	"fmt"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/server"
	"repro/internal/workload"
)

// QoSConfig configures the ingest-vs-solve quality-of-service
// experiment (`benchrunner -exp qos`): a quiescent solve-latency
// baseline, then the same solve stream re-measured while a saturating
// mutation stream hammers the ingest class. Snapshot pinning is on
// trial — solves must keep their latency (within DegradeLimit) and
// every solve must report a version the dataset actually passed
// through.
type QoSConfig struct {
	// Solves is the number of measured solves per phase; 0 means 48.
	Solves int
	// DegradeLimit is the allowed p95 ratio saturated/quiescent; 0
	// means 1.5 (the acceptance bound). A small absolute slack is
	// always added on top to absorb timer granularity at toy scales.
	DegradeLimit float64
}

// QoSResult summarizes the experiment.
type QoSResult struct {
	Solves                     int // measured solves per phase
	QuiescentP50, QuiescentP95 time.Duration
	SaturatedP50, SaturatedP95 time.Duration
	// Degradation is p95 saturated / p95 quiescent.
	Degradation float64
	// MutationsAcked counts acknowledged mutations during the
	// saturated phase; MutationsShed the 429s the ingest class
	// returned (shedding is the class doing its job, not an error).
	MutationsAcked int
	MutationsShed  int
	// VersionSpan is lastVersion-firstVersion observed by the
	// saturated solve stream — proof the mutation stream actually
	// interleaved with the measured solves.
	VersionSpan uint64
	// PinMaxWait is the worst single snapshot-pin wait any solve paid
	// on the dataset's mutation lock (from /stats pinning); the
	// "ingest never blocks solves" observable.
	PinMaxWait time.Duration
	// IngestWait is the total time mutation batches spent queued in
	// the ingest class — evidence the stream was saturating.
	IngestWait time.Duration
	// FalseInfeasible counts measured solves, both phases, that ended
	// in a SketchRefine false infeasibility.
	FalseInfeasible int
	Elapsed         time.Duration
}

// pinStallBudget bounds the worst acceptable snapshot-pin wait: a pin
// only ever waits for the tail of one in-flight mutation batch, so
// anything beyond this means solves are queueing behind ingest again.
const pinStallBudget = 250 * time.Millisecond

// maxFalseInfeasibleRate bounds the share of measured solves that may
// end in a SketchRefine false infeasibility (§4.4), the same 10% the
// sketchrefine package's own rate test allows.
const maxFalseInfeasibleRate = 0.10

// qosSolve is one measured solve: wall latency and the version the
// response reports it was pinned at. A false infeasibility is a
// finished solve but reports no version.
type qosSolve struct {
	lat             time.Duration
	version         uint64
	falseInfeasible bool
}

// checkVersions holds the measured solves to the version contract. At
// most maxFalseInfeasibleRate of them may be false infeasibilities, which
// are answers but report no version; each phase needs a solve that
// reports one. Every reported version must be one the dataset actually
// passed through (versions are dense, so the range from the first
// quiescent one to vEnd suffices), and the sequential measurement stream
// must never see time run backwards. It returns the false
// infeasibilities and the span of versions the saturated solves saw.
func checkVersions(quiescent, saturated []qosSolve, vEnd uint64) (falseInfeasible int, span uint64, err error) {
	all := append(append([]qosSolve{}, quiescent...), saturated...)
	falseInfeasible = len(all) - len(versioned(all))
	if float64(falseInfeasible) > maxFalseInfeasibleRate*float64(len(all)) {
		return falseInfeasible, 0, fmt.Errorf("%d of %d solves were false infeasibilities, above the %.0f%% bound",
			falseInfeasible, len(all), 100*maxFalseInfeasibleRate)
	}
	vq, vs := versioned(quiescent), versioned(saturated)
	if len(vq) == 0 || len(vs) == 0 {
		return falseInfeasible, 0, fmt.Errorf("a phase has no solve that reports a version (%d quiescent, %d saturated)", len(vq), len(vs))
	}
	v0, prev := vq[0].version, uint64(0)
	for i, s := range append(vq, vs...) {
		if s.version < v0 || s.version > vEnd {
			return falseInfeasible, 0, fmt.Errorf("solve %d reported torn version %d (dataset spanned %d..%d)", i, s.version, v0, vEnd)
		}
		if s.version < prev {
			return falseInfeasible, 0, fmt.Errorf("solve %d went backwards: version %d after %d", i, s.version, prev)
		}
		prev = s.version
	}
	return falseInfeasible, vs[len(vs)-1].version - vs[0].version, nil
}

// versioned returns the solves that report a version.
func versioned(ss []qosSolve) []qosSolve {
	var out []qosSolve
	for _, s := range ss {
		if !s.falseInfeasible {
			out = append(out, s)
		}
	}
	return out
}

// qosMutators is the number of concurrent mutation streams. The server
// is configured with a single ingest slot, so anything above 1 keeps the
// ingest class saturated (its queue non-empty) for the whole measured
// phase.
const qosMutators = 4

// QoS measures solve latency quiescent vs under a saturating mutation
// stream against an in-process paqld with split solve/ingest admission
// classes. It fails when p95 under saturation exceeds DegradeLimit ×
// quiescent, when any solve reports a torn version (one the dataset
// never passed through, or one that runs backwards), when a solve is
// shed or errors, or when the worst snapshot-pin wait exceeds the stall
// budget — the three faces of "ingest never blocks solves". It also
// fails when more than maxFalseInfeasibleRate of the measured solves
// end in a false infeasibility.
func (e *Env) QoS(ctx context.Context, cfg QoSConfig) (*QoSResult, error) {
	start := time.Now()
	if cfg.Solves <= 0 {
		cfg.Solves = 48
	}
	if cfg.DegradeLimit <= 0 {
		cfg.DegradeLimit = 1.5
	}
	res := &QoSResult{Solves: cfg.Solves}
	fail := func(format string, args ...any) (*QoSResult, error) {
		return res, fmt.Errorf("bench: qos: "+format, args...)
	}

	// A private Galaxy relation (the Env's is shared with other
	// experiments) with an insert pool behind it. The session caches no
	// solutions: a cache hit costs ~nothing and every mutation would
	// invalidate it, so leaving it on would gift the quiescent phase an
	// unearned speedup and the comparison would measure the cache, not
	// the pinning.
	base := e.cfg.GalaxyN
	full := workload.Galaxy(2*base, e.cfg.Seed)
	sess, err := e.openLive(full)
	if err != nil {
		return fail("session: %w", err)
	}
	ds, err := server.NewDatasetFromSession("galaxy", sess)
	if err != nil {
		return fail("dataset: %w", err)
	}

	// One ingest slot and more mutators than slots: the ingest class
	// stays saturated (queue non-empty) throughout the measured phase.
	// Solves get their own slots, so the only coupling left is the one
	// under test — the relation's mutation lock.
	srv := server.New(server.Config{
		MaxInFlight: 4, MaxQueued: 256,
		IngestMaxInFlight: 1, IngestMaxQueued: 256,
		DefaultTimeout: e.cfg.TimeLimit + time.Minute,
	})
	srv.Register(ds)
	baseURL, stopServer, err := serve(srv.Handler())
	if err != nil {
		return fail("listen: %w", err)
	}
	defer stopServer()

	queries := e.feasibleQueries(Galaxy)
	if len(queries) == 0 {
		return fail("no feasible Galaxy queries")
	}

	client := &http.Client{Timeout: e.cfg.TimeLimit + time.Minute}
	timeoutMS := int64(e.cfg.TimeLimit / time.Millisecond)
	solveOnce := func(q workload.Query) (qosSolve, error) {
		var qr server.QueryResponse
		t0 := time.Now()
		_, err := postJSON(ctx, client, baseURL+"/query", server.QueryRequest{
			Dataset: "galaxy", Query: q.PaQL,
			Method: server.MethodSketchRefine, TimeoutMS: timeoutMS,
		}, &qr)
		lat := time.Since(t0)
		if err != nil {
			return qosSolve{}, fmt.Errorf("%s: a solve was lost, refused, or blocked: %w", q.Name, err)
		}
		if qr.Infeasible && !qr.FalseInfeasible {
			return qosSolve{}, fmt.Errorf("%s: went infeasible (mutation stream broke the base data)", q.Name)
		}
		// A false infeasibility — SketchRefine's one permitted miss (§4.4),
		// which inserted rows can make Q3 hit under saturation — is a
		// finished solve, not a lost one: its latency counts, and the
		// rate gate below bounds how often it may happen.
		return qosSolve{lat: lat, version: qr.Version, falseInfeasible: qr.FalseInfeasible}, nil
	}

	// measurePhase records at least n solves and keeps measuring until
	// minDur has elapsed and satisfied (when given) reports true — at
	// toy scales solves finish in milliseconds, and without a wall-clock
	// floor the saturated phase would end before the mutation stream
	// built any queue. The hard cap turns a never-satisfied condition
	// into a diagnosable failure instead of an infinite loop.
	measurePhase := func(n int, minDur time.Duration, satisfied func() bool) ([]qosSolve, error) {
		out := make([]qosSolve, 0, n)
		t0 := time.Now()
		for i := 0; ; i++ {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			if i >= n && time.Since(t0) >= minDur && (satisfied == nil || satisfied()) {
				return out, nil
			}
			if i >= 200*n || time.Since(t0) > minDur+2*time.Minute {
				return nil, fmt.Errorf("phase never reached its floor after %d solves in %v", i, time.Since(t0))
			}
			s, err := solveOnce(queries[i%len(queries)])
			if err != nil {
				return nil, err
			}
			out = append(out, s)
		}
	}

	// Warm-up (plans, partitioning view, first pins), then the
	// quiescent baseline.
	for _, q := range queries {
		if _, err := solveOnce(q); err != nil {
			return fail("warm-up: %w", err)
		}
	}
	quiescent, err := measurePhase(cfg.Solves, 0, nil)
	if err != nil {
		return fail("quiescent phase: %w", err)
	}

	// Saturated phase: the same solve stream with qosMutators mutation
	// streams hammering the single ingest slot underneath it: inserts
	// from a private slice of the pool, updates and deletes only of rows
	// the stream inserted itself (the base data stays intact, so the
	// solve problem is comparable across phases). The phase floor — one
	// second of wall clock and a minimum acknowledged mutation count —
	// guarantees the measured solves genuinely overlap a loaded ingest
	// queue at any dataset scale.
	const minMutations = 200
	var ackedTotal atomic.Int64
	stop := make(chan struct{})
	muts := make([]*mutationStream, qosMutators)
	errs := make([]error, qosMutators)
	var wg sync.WaitGroup
	for i := range muts {
		m := newMutationStream(e.cfg.Seed+int64(i), full, base, opMix{insert: 0.5, delete: 0.25}, 4,
			nil, httpSink{&http.Client{Timeout: 60 * time.Second}, baseURL})
		m.offset, m.stride = i, qosMutators
		muts[i] = m
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				acked, err := m.step(ctx)
				if err != nil {
					errs[i] = err
					return
				}
				if acked {
					ackedTotal.Add(1)
				}
			}
		}(i)
	}
	saturated, err := measurePhase(cfg.Solves, time.Second, func() bool {
		return ackedTotal.Load() >= minMutations
	})
	close(stop)
	wg.Wait()
	if err != nil {
		return fail("saturated phase: %w", err)
	}
	for i, merr := range errs {
		if merr != nil {
			return fail("mutator %d: %w", i, merr)
		}
	}
	for _, m := range muts {
		res.MutationsAcked += m.acked()
		res.MutationsShed += m.shed
	}
	if res.MutationsAcked == 0 {
		return fail("mutation stream acknowledged nothing — the saturated phase was quiescent")
	}

	res.FalseInfeasible, res.VersionSpan, err = checkVersions(quiescent, saturated, ds.Session().Version())
	if err != nil {
		return fail("%w", err)
	}
	if res.VersionSpan == 0 {
		return fail("saturated solves all saw one version — the streams never interleaved")
	}

	// Admission + pinning accounting from /stats.
	stats := srv.Stats()
	solveQoS, ingestQoS := stats.QoS["solve"], stats.QoS["ingest"]
	if solveQoS.Rejected != 0 || solveQoS.DeadlineExpired != 0 {
		return fail("solve class shed load: %d rejected, %d expired", solveQoS.Rejected, solveQoS.DeadlineExpired)
	}
	res.IngestWait = time.Duration(ingestQoS.WaitMSTotal * float64(time.Millisecond))
	if res.IngestWait == 0 && runtime.GOMAXPROCS(0) > 1 {
		// On one CPU goroutines serialize, so two mutation handlers are
		// almost never inside the admission window at once and queue waits
		// legitimately read zero; anywhere with real parallelism, four
		// continuous streams against one slot must collide.
		return fail("ingest class never queued — the mutation stream was not saturating")
	}
	pin := stats.Datasets["galaxy"].Pinning
	res.PinMaxWait = time.Duration(pin.MaxWaitMS * float64(time.Millisecond))
	if res.PinMaxWait > pinStallBudget {
		return fail("worst snapshot-pin wait %v exceeds %v — solves are blocking on the mutation lock", res.PinMaxWait, pinStallBudget)
	}

	lats := func(ss []qosSolve) []float64 {
		out := make([]float64, len(ss))
		for i, s := range ss {
			out[i] = float64(s.lat) / float64(time.Millisecond)
		}
		return out
	}
	lq, ls := lats(quiescent), lats(saturated)
	res.QuiescentP50 = time.Duration(percentile(lq, 0.50) * float64(time.Millisecond))
	res.QuiescentP95 = time.Duration(percentile(lq, 0.95) * float64(time.Millisecond))
	res.SaturatedP50 = time.Duration(percentile(ls, 0.50) * float64(time.Millisecond))
	res.SaturatedP95 = time.Duration(percentile(ls, 0.95) * float64(time.Millisecond))
	res.Degradation = float64(res.SaturatedP95) / float64(res.QuiescentP95)
	res.Elapsed = time.Since(start)

	// ---- report ---------------------------------------------------------
	fmt.Fprintf(e.cfg.Out, "QoS under saturating ingest (Galaxy, %d rows; %d solves/phase, %d mutation streams over 1 ingest slot)\n",
		base, cfg.Solves, qosMutators)
	fmt.Fprintf(e.cfg.Out, "quiescent  p50 %v  p95 %v\n", res.QuiescentP50.Round(time.Microsecond), res.QuiescentP95.Round(time.Microsecond))
	fmt.Fprintf(e.cfg.Out, "saturated  p50 %v  p95 %v  (p95 ratio %.2f; %d mutations acked, %d shed, versions spanned %d)\n",
		res.SaturatedP50.Round(time.Microsecond), res.SaturatedP95.Round(time.Microsecond),
		res.Degradation, res.MutationsAcked, res.MutationsShed, res.VersionSpan)
	fmt.Fprintf(e.cfg.Out, "false infeasibilities %d of %d solves\n", res.FalseInfeasible, len(quiescent)+len(saturated))
	fmt.Fprintf(e.cfg.Out, "pins %d, worst pin wait %v (budget %v); ingest queue wait %v total in %v\n",
		pin.Pins, res.PinMaxWait, pinStallBudget, res.IngestWait.Round(time.Millisecond), res.Elapsed.Round(time.Millisecond))

	// The acceptance bound, last so the report survives a failure for
	// diagnosis. The absolute slack absorbs scheduler and timer
	// granularity when the baseline is a few milliseconds; at paper
	// scale it is noise against real solve times.
	const slack = 20 * time.Millisecond
	if res.SaturatedP95 > time.Duration(cfg.DegradeLimit*float64(res.QuiescentP95))+slack {
		return fail("p95 degraded %.2fx under saturation (quiescent %v → saturated %v, limit %.2fx)",
			res.Degradation, res.QuiescentP95, res.SaturatedP95, cfg.DegradeLimit)
	}
	return res, nil
}
