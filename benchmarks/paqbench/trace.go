package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"

	"repro/paq"
)

// The traced run records one span per call into a layer's public
// function, from the benchmark's side of the call: no span is added
// inside the program. Spans live in memory and are written out when the
// run ends.

// span is one recorded call. Times are nanoseconds since the recorder
// started. Op is shared by every span of one query or batch.
type span struct {
	ID     int                `json:"id"`
	Parent int                `json:"parent"` // 0 = no parent
	Op     int                `json:"op"`
	Name   string             `json:"name"`
	Start  int64              `json:"start_ns"`
	End    int64              `json:"end_ns"`
	Counts map[string]float64 `json:"counts,omitempty"`
}

// recorder collects spans. A nil recorder records nothing, so the
// untraced run passes nil and pays one nil check per call site.
type recorder struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
	ops   int
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

// newOp returns a fresh operation id.
func (r *recorder) newOp() int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.ops++
	return r.ops
}

// open is a started span; end finishes it.
type open struct {
	r  *recorder
	id int
}

// begin starts a span under parent (nil for a root).
func (r *recorder) begin(parent *open, op int, name string) *open {
	if r == nil {
		return nil
	}
	now := time.Since(r.t0).Nanoseconds()
	r.mu.Lock()
	defer r.mu.Unlock()
	id := len(r.spans) + 1
	s := span{ID: id, Op: op, Name: name, Start: now}
	if parent != nil {
		s.Parent = parent.id
	}
	r.spans = append(r.spans, s)
	return &open{r: r, id: id}
}

// end finishes the span and returns its duration.
func (o *open) end() time.Duration {
	if o == nil {
		return 0
	}
	now := time.Since(o.r.t0).Nanoseconds()
	o.r.mu.Lock()
	defer o.r.mu.Unlock()
	s := &o.r.spans[o.id-1]
	s.End = now
	return time.Duration(s.End - s.Start)
}

// count records a count at the span's boundary.
func (o *open) count(name string, v float64) {
	if o == nil {
		return
	}
	o.r.mu.Lock()
	defer o.r.mu.Unlock()
	s := &o.r.spans[o.id-1]
	if s.Counts == nil {
		s.Counts = make(map[string]float64)
	}
	s.Counts[name] = v
}

// attach hangs the program's own span tree (what paq.WithTrace
// returns) under a benchmark span, prefixing every name with "paq:".
// The tree's offsets are relative to its root, which started when the
// parent span did.
func (o *open) attach(op int, n *paq.TraceNode) {
	if o == nil || n == nil {
		return
	}
	o.r.mu.Lock()
	base := o.r.spans[o.id-1].Start
	o.r.mu.Unlock()
	var walk func(parent int, n *paq.TraceNode)
	walk = func(parent int, n *paq.TraceNode) {
		o.r.mu.Lock()
		id := len(o.r.spans) + 1
		start := base + int64(n.StartMS*1e6)
		o.r.spans = append(o.r.spans, span{
			ID: id, Parent: parent, Op: op, Name: "paq:" + n.Name,
			Start: start, End: start + int64(n.DurationMS*1e6),
		})
		o.r.mu.Unlock()
		for _, c := range n.Children {
			walk(id, c)
		}
	}
	walk(o.id, n)
}

// selfTimes returns, per span name, the total self time: a span's
// duration minus the part of it its children cover (overlapping
// children are merged, so parallel children are not counted twice).
func (r *recorder) selfTimes() map[string]time.Duration {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	type iv struct{ a, b int64 }
	kids := make(map[int][]iv)
	for _, s := range r.spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], iv{s.Start, s.End})
		}
	}
	out := make(map[string]time.Duration)
	for _, s := range r.spans {
		ks := kids[s.ID]
		sort.Slice(ks, func(i, j int) bool { return ks[i].a < ks[j].a })
		covered, hi := int64(0), s.Start
		for _, k := range ks {
			a, b := max(k.a, hi), min(k.b, s.End)
			if b > a {
				covered += b - a
				hi = b
			}
		}
		out[s.Name] += time.Duration(s.End - s.Start - covered)
	}
	return out
}

// traceFile is what -trace writes beside -out.
type traceFile struct {
	Workload string             `json:"workload"`
	Seed     int64              `json:"seed"`
	SelfMS   map[string]float64 `json:"self_ms_by_layer"`
	Spans    []span             `json:"spans"`
}

func (r *recorder) write(path, workload string, seed int64) error {
	tf := traceFile{Workload: workload, Seed: seed, SelfMS: make(map[string]float64)}
	for name, d := range r.selfTimes() {
		tf.SelfMS[name] = ms(d)
	}
	r.mu.Lock()
	tf.Spans = r.spans
	data, err := json.Marshal(tf)
	r.mu.Unlock()
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
