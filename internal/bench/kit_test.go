package bench

import (
	"context"
	"errors"
	"io"
	"math"
	"net/http"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/relation"
	"repro/internal/server"
	"repro/internal/workload"
)

// TestKitCheckersCheck shows the differential can fail: each comparator
// is fed a pair that differs in exactly one way and must name it, and a
// pair that does not differ and must pass. Stubbing relationsEqual or
// compareSolves to return nil fails this test.
func TestKitCheckersCheck(t *testing.T) {
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	// got is want's cells at want's version plus skew, through the
	// constructor a snapshot decode uses: a case whose mutations move the
	// two versions apart starts got where they line up again.
	pair := func(skew int, mutate func(got, want *relation.Relation)) (got, want *relation.Relation) {
		src := workload.Galaxy(8, 1)
		want = src.Subset("galaxy", src.AllRows())
		cols := make([]relation.Cells, want.Schema().Len())
		for c := range cols {
			cols[c] = relation.Cells{F: slices.Clone(want.FloatColumn(c)), I: slices.Clone(want.IntColumn(c))}
		}
		got, err := relation.FromColumns("galaxy", want.Schema(), cols, want.Len(), uint64(int(want.Version())+skew))
		must(err)
		mutate(got, want)
		return got, want
	}
	for _, tc := range []struct {
		name   string
		skew   int // got's version less want's, before mutate
		mutate func(got, want *relation.Relation)
		want   string // substring of the error; "" = equal
	}{
		{"identical", 0, func(got, want *relation.Relation) {}, ""},
		{"same mutations", 0, func(got, want *relation.Relation) {
			for _, r := range []*relation.Relation{got, want} {
				must(r.Delete(1))
				must(r.Set(2, 5, relation.F(9.5)))
			}
		}, ""},
		{"version mismatch", 1, func(got, want *relation.Relation) {}, "version"},
		{"row count", -1, func(got, want *relation.Relation) {
			must(got.Append(got.Row(0)...))
		}, "9/9 rows, twin has 8/8"},
		{"flipped tombstone", 0, func(got, want *relation.Relation) {
			must(got.Delete(3))
			must(want.Delete(4))
		}, "tombstone of row 3"},
		{"one differing cell", 0, func(got, want *relation.Relation) {
			must(got.Set(2, 5, relation.F(1)))
			must(want.Set(2, 5, relation.F(2)))
		}, "cell (2,5)"},
	} {
		got, want := pair(tc.skew, tc.mutate)
		if got.Version() != want.Version() && tc.name != "version mismatch" {
			t.Fatalf("relationsEqual/%s: the pair is at versions %d and %d", tc.name, got.Version(), want.Version())
		}
		err := relationsEqual("replica", got, want)
		switch {
		case tc.want == "" && err != nil:
			t.Errorf("relationsEqual/%s: unexpected divergence: %v", tc.name, err)
		case tc.want != "" && (err == nil || !strings.Contains(err.Error(), tc.want)):
			t.Errorf("relationsEqual/%s: got %v, want an error naming %q", tc.name, err, tc.want)
		}
	}

	ok := func(obj float64) Measurement { return Measurement{Objective: obj} }
	failed := Measurement{Err: errors.New("infeasible")}
	for _, tc := range []struct {
		name               string
		subject, reference Measurement
		want               string  // substring of the error; "" = within bound
		ratio              float64 // expected Ratio (NaN = none formed)
	}{
		{"exact agreement", ok(42), ok(42), "", 1},
		{"just inside the bound", ok(100), ok(109.99), "", 1.0999},
		{"just inside, subject better", ok(109.99), ok(100), "", 1.0999},
		{"just above the bound", ok(100), ok(110.01), "exceeds quality bound", 1.1001},
		{"subject infeasible only", failed, ok(1), "feasibility diverged", math.NaN()},
		{"reference infeasible only", ok(1), failed, "feasibility diverged", math.NaN()},
		{"both infeasible", failed, failed, "", math.NaN()},
		{"zero against non-zero", ok(0), ok(5), "exceeds quality bound", math.Inf(1)},
		{"NaN objective", ok(math.NaN()), ok(5), "exceeds quality bound", math.NaN()},
	} {
		d, err := compareSolves("Q", tc.subject, tc.reference, 1.1)
		switch {
		case tc.want == "" && err != nil:
			t.Errorf("compareSolves/%s: unexpected violation: %v", tc.name, err)
		case tc.want != "" && (err == nil || !strings.Contains(err.Error(), tc.want)):
			t.Errorf("compareSolves/%s: got %v, want an error naming %q", tc.name, err, tc.want)
		}
		same := d.Ratio == tc.ratio || math.Abs(d.Ratio-tc.ratio) < 1e-9 || (math.IsNaN(d.Ratio) && math.IsNaN(tc.ratio))
		if !same {
			t.Errorf("compareSolves/%s: ratio %g, want %g", tc.name, d.Ratio, tc.ratio)
		}
	}
}

// TestCompareSolvesExact holds compareSolves to its bound of 1, the one
// the recovery and replication differentials use: only bit-equal
// objectives pass, even where the ratio reads 1 (opposite signs).
func TestCompareSolvesExact(t *testing.T) {
	for _, tc := range []struct {
		name               string
		subject, reference float64
		ok                 bool
	}{
		{"bit-equal", 10.757, 10.757, true},
		{"one ulp apart", 10.757, math.Nextafter(10.757, 11), false},
		{"opposite signs", -5, 5, false},
	} {
		_, err := compareSolves("Q", Measurement{Objective: tc.subject}, Measurement{Objective: tc.reference}, 1)
		if (err == nil) != tc.ok {
			t.Errorf("%s: compareSolves(%g, %g, bound 1) = %v, want ok=%v", tc.name, tc.subject, tc.reference, err, tc.ok)
		}
	}
}

// TestSinksAreOnePath is the property the two sinks exist to share: the
// same seeded stream through the SDK and through paqld's HTTP API leaves
// two relations the comparator calls equal, at equal versions — the
// server's mutation path is the SDK's, not a second one.
func TestSinksAreOnePath(t *testing.T) {
	const base, ops = 400, 150
	e, err := NewEnv(Config{GalaxyN: base, TPCHN: 1000, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	full := workload.Galaxy(base+ops, 1)
	for seed := int64(1); seed <= 3; seed++ {
		direct, err := e.openLive(full)
		if err != nil {
			t.Fatal(err)
		}
		served, err := e.openLive(full)
		if err != nil {
			t.Fatal(err)
		}
		ds, err := server.NewDatasetFromSession("galaxy", served)
		if err != nil {
			t.Fatal(err)
		}
		srv := server.New(server.Config{})
		srv.Register(ds)
		url, stop, err := serve(srv.Handler())
		if err != nil {
			t.Fatal(err)
		}
		mix := opMix{insert: 0.5, delete: 0.3}
		sdk := newMutationStream(seed, full, base, mix, base/2, direct.Rel().AllRows(), sessionSink{direct})
		wire := newMutationStream(seed, full, base, mix, base/2, served.Rel().AllRows(), httpSink{&http.Client{}, url})
		for _, s := range []*mutationStream{sdk, wire} {
			if err := s.run(ctx, ops); err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
		}
		stop()
		if sdk.inserted == 0 || sdk.deleted == 0 || sdk.updated == 0 {
			t.Fatalf("seed %d: stream missed an op kind: %d/%d/%d", seed, sdk.inserted, sdk.deleted, sdk.updated)
		}
		if err := relationsEqual("HTTP-fed session", served.Rel(), direct.Rel()); err != nil {
			t.Errorf("seed %d: %v", seed, err)
		}
	}
}

// serveGoroutines counts goroutines parked in an http.Server accept
// loop.
func serveGoroutines() int {
	buf := make([]byte, 1<<20)
	for {
		n := runtime.Stack(buf, true)
		if n < len(buf) {
			return strings.Count(string(buf[:n]), "net/http.(*Server).Serve(")
		}
		buf = make([]byte, 2*len(buf))
	}
}

// cancelOnWrite cancels a context at the first write: the experiment's
// header line, printed before any server starts.
type cancelOnWrite struct {
	once   sync.Once
	cancel func()
}

func (c *cancelOnWrite) Write(p []byte) (int, error) {
	c.once.Do(c.cancel)
	return len(p), nil
}

// TestCancelReachesHTTPAndStopsServers pins the two cancellation fixes:
// the experiment ctx reaches every HTTP call (a cancelled QoS returns a
// context.Canceled-wrapped error at once instead of waiting out client
// timeouts), and every loopback server is stopped on every return path
// (Repl used to leak its leader's accept loop on any early failure).
func TestCancelReachesHTTPAndStopsServers(t *testing.T) {
	if testing.Short() {
		t.Skip("boots in-process paqld instances")
	}
	before := serveGoroutines()
	check := func(name string, err error, cancelledAt time.Time) {
		t.Helper()
		if !errors.Is(err, context.Canceled) {
			t.Errorf("%s: got %v, want a context.Canceled-wrapped error", name, err)
		}
		if lag := time.Since(cancelledAt); lag > 2*time.Second {
			t.Errorf("%s: returned %v after cancellation, want < 2s", name, lag)
		}
		if n := serveGoroutines(); n != before {
			t.Errorf("%s: %d goroutine(s) still in net/http.(*Server).Serve, %d before", name, n, before)
		}
	}

	// QoS, cancelled by the clock: 300ms in, the solve stream and the
	// four mutation streams all have requests in flight (the saturated
	// phase alone lasts a second).
	e, err := NewEnv(Config{GalaxyN: 2000, TPCHN: 2000, Seed: 1, Out: io.Discard})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancelled := make(chan time.Time, 1)
	time.AfterFunc(300*time.Millisecond, func() { cancelled <- time.Now(); cancel() })
	_, err = e.QoS(ctx, QoSConfig{Solves: 24, DegradeLimit: 3})
	check("qos", err, <-cancelled)

	// Repl, cancelled at its header line: the leader and both followers
	// still start, then the first mutation fails and Repl returns early.
	ctx, cancel = context.WithCancel(context.Background())
	defer cancel()
	var at time.Time
	e, err = NewEnv(Config{GalaxyN: 2000, TPCHN: 2000, Seed: 1,
		Out: &cancelOnWrite{cancel: func() { at = time.Now(); cancel() }}})
	if err != nil {
		t.Fatal(err)
	}
	_, err = e.Repl(ctx, ReplConfig{Ops: 240})
	check("repl", err, at)
}
