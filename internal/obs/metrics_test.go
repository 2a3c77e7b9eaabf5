package obs

import (
	"strings"
	"sync"
	"testing"
)

// TestExpositionGolden: a registry with one of each metric kind must
// render the exact text-format bytes — names, types, escaping, bucket
// series — and every series must read back under its SeriesKey.
func TestExpositionGolden(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("paqld_queries_total", "Total queries.")
	c.Add(3)
	cm := r.Counter("paqld_solves_total", "Solves by method.", Label{Name: "method", Value: "direct"})
	cm.Inc()
	r.Counter("paqld_solves_total", "Solves by method.", Label{Name: "method", Value: "sketchrefine"}).Add(2)
	r.GaugeFunc("paqld_queue_depth", "Queued requests.", func() float64 { return 7 })
	r.GaugeFunc("paqld_uptime_seconds", "Uptime.", func() float64 { return 1.5 })
	h := r.Histogram("paqld_solve_seconds", "Solve latency.", []float64{0.1, 1})
	h.Observe(0.05)
	h.Observe(0.5)
	h.Observe(5)
	// Label escaping: backslash, quote, newline.
	r.Counter("paqld_weird_total", "Help with \\ and\nnewline.",
		Label{Name: "q", Value: "a\\b\"c\nd"}).Inc()

	var b strings.Builder
	if err := r.WriteText(&b); err != nil {
		t.Fatal(err)
	}
	got := b.String()
	want := `# HELP paqld_queries_total Total queries.
# TYPE paqld_queries_total counter
paqld_queries_total 3
# HELP paqld_queue_depth Queued requests.
# TYPE paqld_queue_depth gauge
paqld_queue_depth 7
# HELP paqld_solve_seconds Solve latency.
# TYPE paqld_solve_seconds histogram
paqld_solve_seconds_bucket{le="0.1"} 1
paqld_solve_seconds_bucket{le="1"} 2
paqld_solve_seconds_bucket{le="+Inf"} 3
paqld_solve_seconds_sum 5.55
paqld_solve_seconds_count 3
# HELP paqld_solves_total Solves by method.
# TYPE paqld_solves_total counter
paqld_solves_total{method="direct"} 1
paqld_solves_total{method="sketchrefine"} 2
# HELP paqld_uptime_seconds Uptime.
# TYPE paqld_uptime_seconds gauge
paqld_uptime_seconds 1.5
# HELP paqld_weird_total Help with \\ and\nnewline.
# TYPE paqld_weird_total counter
paqld_weird_total{q="a\\b\"c\nd"} 1
`
	if got != want {
		t.Fatalf("exposition mismatch:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
	_, values, err := ReadText(strings.NewReader(got))
	if err != nil {
		t.Fatalf("own exposition does not read back: %v", err)
	}
	if v, ok := values[SeriesKey("paqld_solves_total", Label{Name: "method", Value: "sketchrefine"})]; !ok || v != 2 {
		t.Fatalf("read-back value = %v, %v", v, ok)
	}
	if v, ok := values[SeriesKey("paqld_weird_total", Label{Name: "q", Value: "a\\b\"c\nd"})]; !ok || v != 1 {
		t.Fatalf("escaped label round-trip failed: %v, %v", v, ok)
	}

	// A labelled histogram: le sorts in among the series' own labels, and
	// _sum and _count carry the labels without it.
	r = NewRegistry()
	lh := r.Histogram("paqld_wait_seconds", "Wait.", []float64{0.5},
		Label{Name: "queue", Value: "solve"}, Label{Name: "class", Value: "a"})
	lh.Observe(0.25)
	lh.Observe(2)
	b.Reset()
	if err := r.WriteText(&b); err != nil {
		t.Fatal(err)
	}
	want = `# HELP paqld_wait_seconds Wait.
# TYPE paqld_wait_seconds histogram
paqld_wait_seconds_bucket{class="a",le="0.5",queue="solve"} 1
paqld_wait_seconds_bucket{class="a",le="+Inf",queue="solve"} 2
paqld_wait_seconds_sum{class="a",queue="solve"} 2.25
paqld_wait_seconds_count{class="a",queue="solve"} 2
`
	if got := b.String(); got != want {
		t.Fatalf("labelled histogram mismatch:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
	_, values, err = ReadText(strings.NewReader(want))
	if err != nil {
		t.Fatal(err)
	}
	inf := SeriesKey("paqld_wait_seconds_bucket", Label{Name: "queue", Value: "solve"},
		Label{Name: "le", Value: "+Inf"}, Label{Name: "class", Value: "a"})
	if v, ok := values[inf]; !ok || v != 2 {
		t.Fatalf("%s = %v, %v", inf, v, ok)
	}
}

// TestGetOrCreate: same (name, labels) returns the same cell; a type
// conflict returns a detached cell and leaves the family intact.
func TestGetOrCreate(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("x_total", "x")
	b := r.Counter("x_total", "x")
	if a != b {
		t.Fatal("same name returned distinct counters")
	}
	a.Inc()
	detached := r.Histogram("x_total", "x", nil) // type conflict
	detached.Observe(99)
	var sb strings.Builder
	if err := r.WriteText(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.Contains(out, "x_total 1") || strings.Contains(out, "99") {
		t.Fatalf("type conflict corrupted exposition:\n%s", out)
	}
}

// TestCollectFunc: collector families render sorted, dropping
// non-finite samples.
func TestCollectFunc(t *testing.T) {
	r := NewRegistry()
	r.CollectFunc("paqld_cache_hits_total", "counter", "Cache hits.", func() []Sample {
		return []Sample{
			{Labels: []Label{{Name: "dataset", Value: "tpch"}}, Value: 2},
			{Labels: []Label{{Name: "dataset", Value: "galaxy"}}, Value: 5},
		}
	})
	var b strings.Builder
	if err := r.WriteText(&b); err != nil {
		t.Fatal(err)
	}
	got := b.String()
	gi := strings.Index(got, `dataset="galaxy"`)
	ti := strings.Index(got, `dataset="tpch"`)
	if gi < 0 || ti < 0 || gi > ti {
		t.Fatalf("collector series missing or unsorted:\n%s", got)
	}
	if _, _, err := ReadText(strings.NewReader(got)); err != nil {
		t.Fatal(err)
	}
}

// TestReadTextRejects: the reader refuses the lines a lookup by series
// key could not trust.
func TestReadTextRejects(t *testing.T) {
	for name, in := range map[string]string{
		"no value":             "# TYPE x_total counter\nx_total\n",
		"no value, labelled":   "# TYPE x_total counter\nx_total{q=\"a b\"}\n",
		"non-numeric value":    "# TYPE x_total counter\nx_total one\n",
		"series written twice": "# TYPE x_total counter\nx_total{l=\"a\"} 1\nx_total{l=\"a\"} 2\n",
	} {
		if _, _, err := ReadText(strings.NewReader(in)); err == nil {
			t.Errorf("%s: accepted %q", name, in)
		}
	}
	types, values, err := ReadText(strings.NewReader("# HELP x_total fine\n# TYPE x_total counter\nx_total{l=\"a b\"} 1\nx_total{l=\"c\"} 2\n"))
	if err != nil {
		t.Fatalf("rejected well-formed input: %v", err)
	}
	if types["x_total"] != "counter" || values[SeriesKey("x_total", Label{Name: "l", Value: "a b"})] != 1 || len(values) != 2 {
		t.Fatalf("read types %v, values %v", types, values)
	}
}

// TestConcurrentScrapes: scrapes render the same labelled histogram
// while it is observed, and each one reads back. Run it under -race: with
// 18 labels the series' stored copy has spare capacity, so a bucket's
// label list appended onto it would be written by both scrapes at once.
func TestConcurrentScrapes(t *testing.T) {
	r := NewRegistry()
	var labels []Label
	for _, n := range strings.Split("abcdefghijklmnopqr", "") {
		labels = append(labels, Label{Name: n, Value: n})
	}
	h := r.Histogram("paqld_wait_seconds", "Wait.", nil, labels...)
	var wg sync.WaitGroup
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				if g == 0 {
					h.Observe(float64(i) / 10)
					continue
				}
				var b strings.Builder
				if err := r.WriteText(&b); err != nil {
					t.Error(err)
					return
				}
				if _, _, err := ReadText(strings.NewReader(b.String())); err != nil {
					t.Error(err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}
