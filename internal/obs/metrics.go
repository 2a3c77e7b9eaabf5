package obs

import (
	"fmt"
	"io"
	"math"
	"net/http"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Label is one name/value pair attached to a metric series.
type Label struct {
	Name  string
	Value string
}

// Sample is one series emitted by a collector-backed family at scrape
// time (dynamic label sets: per-dataset caches, replication tails).
type Sample struct {
	Labels []Label
	Value  float64
}

// Counter is a monotonically increasing integer metric. The zero
// value is ready to use; instances handed out by Registry.Counter are
// additionally rendered at scrape time, which is what lets a /stats
// block and /metrics read the very same cell.
type Counter struct{ v atomic.Uint64 }

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Histogram is a fixed-bucket cumulative histogram. Buckets are upper
// bounds in ascending order; +Inf is implicit.
type Histogram struct {
	bounds []float64
	counts []atomic.Uint64 // len(bounds)+1; last is the +Inf overflow
	count  atomic.Uint64
	sum    atomic.Uint64 // float64 bits, CAS-accumulated
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sum.Load()
		if h.sum.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+v)) {
			return
		}
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Sum returns the sum of observations.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sum.Load()) }

// DefBuckets are latency buckets in seconds, spanning sub-millisecond
// cache hits to minute-scale ILP solves.
var DefBuckets = []float64{
	0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1,
	0.25, 0.5, 1, 2.5, 5, 10, 30, 60,
}

const (
	typeCounter   = "counter"
	typeGauge     = "gauge"
	typeHistogram = "histogram"
)

// series is one registered label combination of a family.
type series struct {
	labels []Label
	ctr    *Counter
	gaugeF func() float64
	histo  *Histogram
}

// family is one metric name: a help string, a type, and its series.
type family struct {
	name, help, typ string

	mu      sync.Mutex
	series  map[string]*series
	collect func() []Sample
}

// Registry holds metric families and renders them in the Prometheus
// text exposition format (version 0.0.4). All methods are safe for
// concurrent use. Registration is get-or-create: asking twice for the
// same (name, labels) returns the same instance. A name re-registered
// with a conflicting type returns a detached, unrendered instance
// rather than corrupting the exposition (the registry never panics —
// it lives on the query path).
type Registry struct {
	mu   sync.RWMutex
	fams map[string]*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{fams: make(map[string]*family)}
}

// familyFor returns the family for name, creating it with the given
// type/help on first use. A type conflict returns nil.
func (r *Registry) familyFor(name, help, typ string) *family {
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.fams[name]
	if f == nil {
		f = &family{name: name, help: help, typ: typ, series: make(map[string]*series)}
		r.fams[name] = f
		return f
	}
	if f.typ != typ {
		return nil
	}
	return f
}

// Counter returns the counter for (name, labels), registering the
// family on first use.
func (r *Registry) Counter(name, help string, labels ...Label) *Counter {
	f := r.familyFor(name, help, typeCounter)
	if f == nil {
		return &Counter{}
	}
	s := f.seriesFor(labels)
	if s.ctr == nil {
		s.ctr = &Counter{}
	}
	return s.ctr
}

// GaugeFunc registers a gauge series whose value is computed at
// scrape time.
func (r *Registry) GaugeFunc(name, help string, fn func() float64, labels ...Label) {
	f := r.familyFor(name, help, typeGauge)
	if f == nil {
		return
	}
	s := f.seriesFor(labels)
	s.gaugeF = fn
}

// Histogram returns the histogram for (name, labels) with the given
// upper bounds (ascending; nil means DefBuckets).
func (r *Registry) Histogram(name, help string, buckets []float64, labels ...Label) *Histogram {
	if len(buckets) == 0 {
		buckets = DefBuckets
	}
	mk := func() *Histogram {
		return &Histogram{
			bounds: append([]float64(nil), buckets...),
			counts: make([]atomic.Uint64, len(buckets)+1),
		}
	}
	f := r.familyFor(name, help, typeHistogram)
	if f == nil {
		return mk()
	}
	s := f.seriesFor(labels)
	if s.histo == nil {
		s.histo = mk()
	}
	return s.histo
}

// CollectFunc registers a whole family (counter or gauge typed) whose
// series are produced at scrape time — the shape for dynamic label
// sets such as per-dataset cache or replication-tail counters. The
// collector must return finite values; NaN/Inf samples are dropped.
func (r *Registry) CollectFunc(name, typ, help string, fn func() []Sample) {
	if typ != typeCounter && typ != typeGauge {
		return
	}
	f := r.familyFor(name, help, typ)
	if f == nil {
		return
	}
	f.mu.Lock()
	f.collect = fn
	f.mu.Unlock()
}

// seriesFor returns the series for one label combination, creating it
// on first use.
func (f *family) seriesFor(labels []Label) *series {
	key := SeriesKey(f.name, labels...)
	f.mu.Lock()
	defer f.mu.Unlock()
	s := f.series[key]
	if s == nil {
		s = &series{labels: slices.Clone(labels)}
		f.series[key] = s
	}
	return s
}

// SeriesKey renders one series as WriteText writes it: the name, then
// the labels sorted by name with their values escaped. A family keeps
// its series under this key, and ReadText returns a scrape's values by
// it.
func SeriesKey(name string, labels ...Label) string {
	if len(labels) == 0 {
		return name
	}
	ls := slices.Clone(labels)
	sort.Slice(ls, func(i, j int) bool { return ls[i].Name < ls[j].Name })
	var b strings.Builder
	b.WriteString(name)
	b.WriteByte('{')
	for i, l := range ls {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l.Name)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(l.Value))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

// escapeLabel escapes a label value per the exposition format.
func escapeLabel(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	v = strings.ReplaceAll(v, `"`, `\"`)
	return strings.ReplaceAll(v, "\n", `\n`)
}

// escapeHelp escapes a HELP string per the exposition format.
func escapeHelp(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	return strings.ReplaceAll(v, "\n", `\n`)
}

// formatValue renders a sample value. Counters are integers in this
// registry, so whole values print without an exponent.
func formatValue(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return strconv.FormatFloat(v, 'f', -1, 64)
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// WriteText renders the registry in the text exposition format:
// families sorted by name, one HELP/TYPE header each, series sorted
// by series key.
func (r *Registry) WriteText(w io.Writer) error {
	r.mu.RLock()
	names := make([]string, 0, len(r.fams))
	for n := range r.fams {
		names = append(names, n)
	}
	fams := make(map[string]*family, len(r.fams))
	for n, f := range r.fams {
		fams[n] = f
	}
	r.mu.RUnlock()
	sort.Strings(names)
	for _, n := range names {
		if err := fams[n].write(w); err != nil {
			return err
		}
	}
	return nil
}

func (f *family) write(w io.Writer) error {
	f.mu.Lock()
	keys := make([]string, 0, len(f.series))
	sers := make(map[string]*series, len(f.series))
	for k, s := range f.series {
		keys = append(keys, k)
		sers[k] = s
	}
	collect := f.collect
	f.mu.Unlock()
	sort.Strings(keys)

	if _, err := fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n",
		f.name, escapeHelp(f.help), f.name, f.typ); err != nil {
		return err
	}
	for _, k := range keys {
		if err := sers[k].write(w, f.name, k); err != nil {
			return err
		}
	}
	if collect != nil {
		samples := collect()
		lines := make([]string, 0, len(samples))
		for _, s := range samples {
			if math.IsNaN(s.Value) || math.IsInf(s.Value, 0) {
				continue
			}
			lines = append(lines, SeriesKey(f.name, s.Labels...)+" "+formatValue(s.Value))
		}
		sort.Strings(lines)
		for _, l := range lines {
			if _, err := io.WriteString(w, l+"\n"); err != nil {
				return err
			}
		}
	}
	return nil
}

func (s *series) write(w io.Writer, name, key string) error {
	switch {
	case s.ctr != nil:
		_, err := fmt.Fprintf(w, "%s %d\n", key, s.ctr.Value())
		return err
	case s.gaugeF != nil:
		v := s.gaugeF()
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil
		}
		_, err := fmt.Fprintf(w, "%s %s\n", key, formatValue(v))
		return err
	case s.histo != nil:
		return s.writeHisto(w, name)
	}
	return nil
}

// writeHisto renders the cumulative bucket series, the last one at
// le="+Inf", then _sum and _count. The bucket's label list is its own
// copy: two scrapes may render the same series at once.
func (s *series) writeHisto(w io.Writer, name string) error {
	h := s.histo
	ls := append(slices.Clip(s.labels), Label{Name: "le"})
	var cum uint64
	for i := range h.counts {
		cum += h.counts[i].Load()
		ub := math.Inf(1)
		if i < len(h.bounds) {
			ub = h.bounds[i]
		}
		ls[len(ls)-1].Value = strconv.FormatFloat(ub, 'g', -1, 64)
		if _, err := fmt.Fprintf(w, "%s %d\n", SeriesKey(name+"_bucket", ls...), cum); err != nil {
			return err
		}
	}
	if _, err := fmt.Fprintf(w, "%s %s\n", SeriesKey(name+"_sum", s.labels...), formatValue(h.Sum())); err != nil {
		return err
	}
	_, err := fmt.Fprintf(w, "%s %d\n", SeriesKey(name+"_count", s.labels...), h.Count())
	return err
}

// Handler serves the registry at GET /metrics in the text exposition
// format.
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		var b strings.Builder
		if err := r.WriteText(&b); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_, _ = io.WriteString(w, b.String())
	})
}
