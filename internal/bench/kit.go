package bench

// The differential kit. Every operational experiment is the same
// skeleton — drive a seeded mutation stream into a subject, mirror each
// acknowledged op into a twin, then compare relations cell for cell and
// objectives against the SketchRefine quality bound — so the skeleton
// lives here once: one mutation stream with a sink per transport, one
// relation comparator, one solve differential, one loopback server, one
// JSON POST.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"

	"repro/internal/relation"
	"repro/internal/server"
	"repro/internal/workload"
	"repro/paq"
)

// liveOpts are the session options of every live-dataset experiment:
// SketchRefine over warm (incrementally maintained) partitioning on the
// Galaxy workload attributes.
func (e *Env) liveOpts(extra ...paq.Option) []paq.Option {
	return e.sessionOpts(append([]paq.Option{
		paq.WithPartitionAttrs(e.attrs[Galaxy]...),
		paq.WithSeed(e.cfg.Seed),
		paq.WithMethod(paq.MethodSketchRefine),
		paq.WithWarmPartitioning(),
	}, extra...)...)
}

// openLive opens a live session over the first GalaxyN rows of full.
// The generator is sequential, so Galaxy(base+k, seed) extends
// Galaxy(base, seed): rows base.. of full form the deterministic insert
// pool.
func (e *Env) openLive(full *relation.Relation, extra ...paq.Option) (*paq.Session, error) {
	return paq.Open(paq.Table(full.Subset("galaxy", full.AllRows()[:e.cfg.GalaxyN])), e.liveOpts(extra...)...)
}

// ---- mutation stream ------------------------------------------------

type opKind int

const (
	opInsert opKind = iota
	opDelete
	opUpdate
)

func (k opKind) String() string { return [...]string{"insert", "delete", "update"}[k] }

// mutation is one single-row op as the stream emits it.
type mutation struct {
	kind opKind
	row  int              // victim of a delete or update
	vals []relation.Value // inserted or replacement values
}

// ack is a sink's acknowledgement: the dataset version after the op and,
// for an insert, the row index assigned. shed reports an admission
// refusal (nothing was applied).
type ack struct {
	version uint64
	row     int
	shed    bool
}

// mutationSink applies one op to a dataset. There are two because there
// are two transports: the SDK and paqld's HTTP API.
type mutationSink interface {
	apply(ctx context.Context, m mutation) (ack, error)
}

// sessionSink mutates a paq.Session directly.
type sessionSink struct{ s *paq.Session }

func (k sessionSink) apply(_ context.Context, m mutation) (a ack, err error) {
	switch m.kind {
	case opInsert:
		var rows []int
		if rows, a.version, err = k.s.InsertRows([][]relation.Value{m.vals}); err == nil {
			a.row = rows[0]
		}
	case opDelete:
		a.version, err = k.s.DeleteRows([]int{m.row})
	default:
		a.version, err = k.s.UpdateRows([]int{m.row}, [][]relation.Value{m.vals})
	}
	return a, err
}

// httpSink mutates the galaxy dataset of a paqld at url; a 429 from the
// ingest admission class is reported as shed, not as an error.
type httpSink struct {
	client *http.Client
	url    string
}

func (h httpSink) apply(ctx context.Context, m mutation) (ack, error) {
	var req server.MutateRequest
	if m.kind == opDelete {
		req.Delete = []int{m.row}
	} else {
		vals, err := jsonRow(m.vals)
		if err != nil {
			return ack{}, err
		}
		if m.kind == opInsert {
			req.Insert = [][]any{vals}
		} else {
			req.Update = []server.UpdateRow{{Row: m.row, Values: vals}}
		}
	}
	var mr server.MutateResponse
	status, err := postJSON(ctx, h.client, h.url+"/datasets/galaxy/rows", req, &mr)
	if status == http.StatusTooManyRequests {
		return ack{shed: true}, nil
	}
	if err != nil {
		return ack{}, err
	}
	a := ack{version: mr.Version}
	if m.kind == opInsert {
		if len(mr.InsertedRows) != 1 {
			return ack{}, fmt.Errorf("insert acknowledged %d row ids, want 1", len(mr.InsertedRows))
		}
		a.row = mr.InsertedRows[0]
	}
	return a, nil
}

// jsonRow lowers a row onto the JSON scalars MutateRequest carries.
func jsonRow(row []relation.Value) ([]any, error) {
	out := make([]any, len(row))
	for i, v := range row {
		var err error
		switch v.Type() {
		case relation.Int:
			out[i], err = v.Int()
		case relation.Float:
			out[i], err = v.Float()
		default:
			out[i], err = v.Str()
		}
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// opMix is a stream's op distribution: P(insert) and P(delete); the
// remainder updates.
type opMix struct{ insert, delete float64 }

// mutationStream is the seeded single-row op generator. It owns the rng,
// the insert pool, and the live set of eligible victims; each op goes to
// sinks[0] (the subject) and, once acknowledged, to every further sink
// (the twins), which must acknowledge the same version and row.
type mutationStream struct {
	rng *rand.Rand
	// pool supplies inserted rows from index base on (cyclically, every
	// stride-th row starting at base+offset, so concurrent streams draw
	// disjoint rows) and update values from rows [0, base).
	pool                 *relation.Relation
	base, offset, stride int
	drawn                int
	mix                  opMix
	// floor forces an insert while fewer than floor victims are live.
	floor int
	// live holds the row ids deletes and updates may hit: the whole
	// relation, or only rows this stream inserted when it starts nil.
	live  []int
	sinks []mutationSink

	inserted, deleted, updated, shed int
}

func newMutationStream(seed int64, pool *relation.Relation, base int, mix opMix, floor int, live []int, sinks ...mutationSink) *mutationStream {
	return &mutationStream{
		rng: rand.New(rand.NewSource(seed)), pool: pool, base: base, stride: 1,
		mix: mix, floor: floor, live: live, sinks: sinks,
	}
}

// acked is the number of ops the subject acknowledged.
func (ms *mutationStream) acked() int { return ms.inserted + ms.deleted + ms.updated }

// step emits one op. It reports false when the subject shed it; the
// stream's state then stays as it was.
func (ms *mutationStream) step(ctx context.Context) (bool, error) {
	if err := ctx.Err(); err != nil {
		return false, err
	}
	var m mutation
	victim := -1
	switch k := ms.rng.Float64(); {
	case k < ms.mix.insert || len(ms.live) < ms.floor || len(ms.live) == 0:
		at := ms.base + (ms.offset+ms.drawn*ms.stride)%(ms.pool.Len()-ms.base)
		m = mutation{kind: opInsert, vals: ms.pool.Row(at)}
	case k < ms.mix.insert+ms.mix.delete:
		victim = ms.rng.Intn(len(ms.live))
		m = mutation{kind: opDelete, row: ms.live[victim]}
	default:
		m = mutation{kind: opUpdate, row: ms.live[ms.rng.Intn(len(ms.live))], vals: ms.pool.Row(ms.rng.Intn(ms.base))}
	}
	a, err := ms.sinks[0].apply(ctx, m)
	if err != nil {
		return false, fmt.Errorf("%s: %w", m.kind, err)
	}
	if a.shed {
		ms.shed++
		return false, nil
	}
	for i, twin := range ms.sinks[1:] {
		ta, err := twin.apply(ctx, m)
		if err != nil {
			return false, fmt.Errorf("twin %d %s: %w", i, m.kind, err)
		}
		if ta != a {
			return false, fmt.Errorf("%s acknowledged at version %d row %d, twin %d at version %d row %d shed=%v (streams diverged)",
				m.kind, a.version, a.row, i, ta.version, ta.row, ta.shed)
		}
	}
	switch m.kind {
	case opInsert:
		ms.live = append(ms.live, a.row)
		ms.drawn++
		ms.inserted++
	case opDelete:
		ms.live[victim] = ms.live[len(ms.live)-1]
		ms.live = ms.live[:len(ms.live)-1]
		ms.deleted++
	default:
		ms.updated++
	}
	return true, nil
}

// run emits n ops that must all be acknowledged: a sequential stream
// never outruns an admission queue, so a shed op is an error here.
func (ms *mutationStream) run(ctx context.Context, n int) error {
	for op := 0; op < n; op++ {
		ok, err := ms.step(ctx)
		if err != nil {
			return fmt.Errorf("op %d: %w", op, err)
		}
		if !ok {
			return fmt.Errorf("op %d: shed by admission control", op)
		}
	}
	return nil
}

// ---- comparators ----------------------------------------------------

// relationsEqual is the one definition of "replayed state is
// cell-identical": equal versions, equal physical and live row counts,
// equal tombstones, and equal cells on every live row.
func relationsEqual(who string, got, want *relation.Relation) error {
	if gv, wv := got.Version(), want.Version(); gv != wv {
		return fmt.Errorf("%s: version %d, twin at %d (acknowledged mutations lost)", who, gv, wv)
	}
	if got.Len() != want.Len() || got.Live() != want.Live() {
		return fmt.Errorf("%s: %d/%d rows, twin has %d/%d", who, got.Len(), got.Live(), want.Len(), want.Live())
	}
	for r := 0; r < got.Len(); r++ {
		if got.Deleted(r) != want.Deleted(r) {
			return fmt.Errorf("%s: tombstone of row %d diverges", who, r)
		}
		if got.Deleted(r) {
			continue
		}
		for c := 0; c < got.Schema().Len(); c++ {
			if !got.Value(r, c).Equal(want.Value(r, c)) {
				return fmt.Errorf("%s: cell (%d,%d) diverges: %v vs %v", who, r, c, got.Value(r, c), want.Value(r, c))
			}
		}
	}
	return nil
}

// DiffQuery is the differential outcome for one workload query.
type DiffQuery struct {
	Query string
	// Subject and Reference are the two sides' SketchRefine solves: the
	// session under test (maintained, recovered, replicated) and the
	// one it must be indistinguishable from (rebuilt, never-crashed twin).
	Subject, Reference Measurement
	// Ratio is the worse-over-better objective ratio (≥ 1; 1 when both
	// sides agree exactly, NaN when either side failed).
	Ratio float64
}

// agreeOnFeasibility is the half of a solve comparison every
// differential shares: both sides answer, or neither does.
func agreeOnFeasibility(query string, subject, reference Measurement) error {
	if (subject.Err == nil) != (reference.Err == nil) {
		return fmt.Errorf("%s: feasibility diverged (subject err %v, reference err %v)", query, subject.Err, reference.Err)
	}
	return nil
}

// compareSolves checks one subject solve against its reference: they
// must agree on feasibility, and when both answer the worse-over-better
// objective ratio must stay within bound. A bound of 1 demands
// bit-equal objectives. A ratio that cannot be formed (NaN, or a zero
// objective against a non-zero one) is a violation.
func compareSolves(query string, subject, reference Measurement, bound float64) (DiffQuery, error) {
	d := DiffQuery{Query: query, Subject: subject, Reference: reference, Ratio: math.NaN()}
	if err := agreeOnFeasibility(query, subject, reference); err != nil || subject.Err != nil {
		return d, err
	}
	lo, hi := math.Abs(subject.Objective), math.Abs(reference.Objective)
	if lo > hi {
		lo, hi = hi, lo
	}
	d.Ratio = 1
	if subject.Objective != reference.Objective {
		d.Ratio = hi / lo
		if bound == 1 {
			return d, fmt.Errorf("%s: objective %g differs from the reference's %g, which it must equal bit for bit",
				query, subject.Objective, reference.Objective)
		}
	}
	if math.IsNaN(d.Ratio) || d.Ratio > bound {
		return d, fmt.Errorf("%s: objective ratio %g exceeds quality bound %g (subject %g, reference %g)",
			query, d.Ratio, bound, subject.Objective, reference.Objective)
	}
	return d, nil
}

// solveSketchRefine prepares and executes one query with SketchRefine.
func solveSketchRefine(ctx context.Context, s *paq.Session, paql string) Measurement {
	return measure(func() (*paq.Result, error) {
		stmt, err := s.Prepare(paql, paq.WithMethod(paq.MethodSketchRefine))
		if err != nil {
			return nil, err
		}
		return stmt.Execute(ctx)
	})
}

// solveDifferential solves every non-hard Galaxy query on each subject
// and once on the reference, prints the comparison table (columns named
// by the two labels), and returns the rows, the bound they were held to
// and the first violation. With exact the bound is 1: a subject that
// replays the reference's records through the same apply path must
// return its objective bit for bit. Otherwise it is, per query, the
// worst QualityBound any participating session reports. Hard queries
// are skipped: they are combinatorially hard for the ILP stand-in at
// any partitioning.
func (e *Env) solveDifferential(ctx context.Context, subjectLabel, referenceLabel string, subjects []*paq.Session, reference *paq.Session, exact bool) ([]DiffQuery, float64, error) {
	var (
		rows      []DiffQuery
		worst     float64
		violation error
	)
	fmt.Fprintf(e.cfg.Out, "%-10s %14s %14s %8s\n", "query", subjectLabel, referenceLabel, "ratio")
	for _, q := range e.feasibleQueries(Galaxy) {
		if err := ctx.Err(); err != nil {
			return rows, worst, err
		}
		bound := 1.0
		if !exact {
			bound = reference.QualityBound(q.Maximize)
			for _, s := range subjects {
				bound = math.Max(bound, s.QualityBound(q.Maximize))
			}
		}
		worst = math.Max(worst, bound)
		ref := solveSketchRefine(ctx, reference, q.PaQL)
		for i, s := range subjects {
			name := q.Name
			if len(subjects) > 1 {
				name = fmt.Sprintf("%s/%d", q.Name, i)
			}
			d, err := compareSolves(name, solveSketchRefine(ctx, s, q.PaQL), ref, bound)
			if violation == nil {
				violation = err
			}
			rows = append(rows, d)
			fmt.Fprintf(e.cfg.Out, "%-10s %14s %14s %8.4f\n", name, fmtObjective(d.Subject), fmtObjective(d.Reference), d.Ratio)
		}
	}
	fmt.Fprintf(e.cfg.Out, "quality bound %.4g; %d %s solves differentially checked against the %s\n",
		worst, len(rows), subjectLabel, referenceLabel)
	return rows, worst, violation
}

// feasibleQueries is a dataset's workload minus the Hard queries.
func (e *Env) feasibleQueries(ds Dataset) []workload.Query {
	var out []workload.Query
	for _, q := range e.queries[ds] {
		if !q.Hard {
			out = append(out, q)
		}
	}
	return out
}

func fmtObjective(m Measurement) string {
	if m.Err != nil {
		return "FAIL"
	}
	return fmt.Sprintf("%.3f", m.Objective)
}

// ---- loopback HTTP --------------------------------------------------

// serve runs handler on a loopback port and returns its base URL. stop
// closes the listener and every connection and returns once the accept
// loop has exited; it may be called more than once.
func serve(handler http.Handler) (url string, stop func(), err error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", nil, err
	}
	srv := &http.Server{Handler: handler}
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = srv.Serve(ln) // always ErrServerClosed: stop is the only way out
	}()
	return "http://" + ln.Addr().String(), func() { _ = srv.Close(); <-done }, nil
}

// postJSON POSTs in as JSON under ctx and decodes a 200 response into
// out. Any other status is returned with an error carrying the head of
// the body, so callers that treat a status as data (429 = shed) test
// the status first.
func postJSON(ctx context.Context, client *http.Client, url string, in, out any) (int, error) {
	body, err := json.Marshal(in)
	if err != nil {
		return 0, err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := client.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<10))
		return resp.StatusCode, fmt.Errorf("HTTP %d: %s", resp.StatusCode, bytes.TrimSpace(msg))
	}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		return resp.StatusCode, fmt.Errorf("decoding response: %w", err)
	}
	return resp.StatusCode, nil
}
