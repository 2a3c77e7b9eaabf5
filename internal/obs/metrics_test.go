package obs

import (
	"strings"
	"testing"
)

// TestExpositionGolden: a registry with one of each metric kind must
// render the exact text-format bytes — names, types, escaping, bucket
// series — and the rendering must survive its own validator.
func TestExpositionGolden(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("paqld_queries_total", "Total queries.")
	c.Add(3)
	cm := r.Counter("paqld_solves_total", "Solves by method.", Label{Name: "method", Value: "direct"})
	cm.Inc()
	r.Counter("paqld_solves_total", "Solves by method.", Label{Name: "method", Value: "sketchrefine"}).Add(2)
	g := r.Gauge("paqld_queue_depth", "Queued requests.")
	g.Set(7)
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
	exp, err := ParseExposition(strings.NewReader(got))
	if err != nil {
		t.Fatalf("own exposition fails validation: %v", err)
	}
	if v, ok := exp.Value("paqld_solves_total", map[string]string{"method": "sketchrefine"}); !ok || v != 2 {
		t.Fatalf("parsed value = %v, %v", v, ok)
	}
	if v, ok := exp.Value("paqld_weird_total", map[string]string{"q": "a\\b\"c\nd"}); !ok || v != 1 {
		t.Fatalf("escaped label round-trip failed: %v, %v", v, ok)
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
	detached := r.Gauge("x_total", "x") // type conflict
	detached.Set(99)
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
	if _, err := ParseExposition(strings.NewReader(got)); err != nil {
		t.Fatal(err)
	}
}

// TestValidatorCatchesViolations: the validator must reject the
// malformations the golden test can't produce.
func TestValidatorCatchesViolations(t *testing.T) {
	cases := map[string]string{
		"bad name": "# TYPE 9bad counter\n9bad 1\n",
		"bad type": "# TYPE x_total jauge\nx_total 1\n",
		"interleaved families": "# TYPE a_total counter\na_total{x=\"1\"} 1\n" +
			"# TYPE b_total counter\nb_total 1\na_total{x=\"2\"} 2\n",
		"histogram non-cumulative": "# TYPE h histogram\n" +
			"h_bucket{le=\"0.1\"} 5\nh_bucket{le=\"1\"} 3\nh_bucket{le=\"+Inf\"} 5\nh_sum 1\nh_count 5\n",
		"histogram missing +Inf": "# TYPE h histogram\n" +
			"h_bucket{le=\"0.1\"} 1\nh_bucket{le=\"1\"} 2\nh_sum 1\nh_count 2\n",
		"histogram count mismatch": "# TYPE h histogram\n" +
			"h_bucket{le=\"+Inf\"} 3\nh_sum 1\nh_count 2\n",
		"unescaped quote":       "# TYPE x counter\nx{l=\"a\"b\"} 1\n",
		"bad escape":            "# TYPE x counter\nx{l=\"a\\t\"} 1\n",
		"duplicate label":       "# TYPE x counter\nx{l=\"a\",l=\"b\"} 1\n",
		"duplicate TYPE":        "# TYPE x counter\n# TYPE x counter\nx 1\n",
		"not a number":          "# TYPE x counter\nx one\n",
		"histogram bare sample": "# TYPE h histogram\nh 1\n",
	}
	for name, in := range cases {
		if _, err := ParseExposition(strings.NewReader(in)); err == nil {
			t.Errorf("%s: validator accepted %q", name, in)
		}
	}
	// And a well-formed document passes.
	ok := "# HELP x_total fine\n# TYPE x_total counter\nx_total{l=\"a\"} 1\nx_total{l=\"b\"} 2\n"
	if _, err := ParseExposition(strings.NewReader(ok)); err != nil {
		t.Errorf("validator rejected well-formed input: %v", err)
	}
}
