// Package obs is the observability plane: per-query span trees, a
// Prometheus-text metric registry, a slow-query log, and runtime
// gauges. It is deliberately zero-dependency (standard library only)
// and carries measurements, not evaluation — nothing in here decides
// anything about a solve.
//
// # Tracing model
//
// A trace is a tree of Spans rooted at one query execution. The
// current span travels on the context (ContextWith / FromContext);
// layers that want to attribute time call Start, which is a single
// context lookup and returns a nil span when tracing is off — every
// Span method is nil-safe, so the disabled path costs one Value call
// and no allocation. Child counts are bounded (MaxChildren): a span
// that would overflow records the overflow in DroppedChildren instead
// of growing without limit.
//
// Spans are safe for concurrent use: racing refinement orders and
// parallel subproblems may attach children to the same parent.
package obs

import (
	"context"
	"sync"
	"time"
)

// MaxChildren bounds the children one span will record; further Child
// calls are counted in DroppedChildren and return nil (which, being a
// valid no-op span, keeps the caller's code path unchanged).
const MaxChildren = 128

// Span is one timed node of a trace. The zero value is not used;
// create roots with NewSpan and children with Child. A nil *Span is
// the disabled trace: every method is a no-op.
type Span struct {
	name  string
	start time.Time

	mu       sync.Mutex
	dur      time.Duration
	done     bool
	attrs    []attr
	children []*Span
	dropped  int
}

type attr struct {
	key string
	val any
}

// NewSpan starts a new root span.
func NewSpan(name string) *Span {
	return &Span{name: name, start: time.Now()}
}

// Child starts a child span. It returns nil when s is nil (tracing
// off) or the child bound is exhausted (the drop is recorded).
func (s *Span) Child(name string) *Span {
	if s == nil {
		return nil
	}
	c := &Span{name: name, start: time.Now()}
	s.mu.Lock()
	if len(s.children) >= MaxChildren {
		s.dropped++
		s.mu.Unlock()
		return nil
	}
	s.children = append(s.children, c)
	s.mu.Unlock()
	return c
}

// Finish stamps the span's duration. The first call wins; later calls
// are no-ops, so deferred Finish pairs safely with early returns.
func (s *Span) Finish() {
	if s == nil {
		return
	}
	s.mu.Lock()
	if !s.done {
		s.done = true
		s.dur = time.Since(s.start)
	}
	s.mu.Unlock()
}

// SetAttr records one key/value annotation. Values should be small
// scalars (string, bool, int, int64, uint64, float64); they are
// marshaled into the trace's JSON form verbatim. Setting a key twice
// overwrites.
func (s *Span) SetAttr(key string, val any) {
	if s == nil {
		return
	}
	s.mu.Lock()
	for i := range s.attrs {
		if s.attrs[i].key == key {
			s.attrs[i].val = val
			s.mu.Unlock()
			return
		}
	}
	s.attrs = append(s.attrs, attr{key: key, val: val})
	s.mu.Unlock()
}

// The typed attr setters below exist for hot paths: a call through
// SetAttr boxes its value into an interface at the call site even
// when s is nil (tracing off), which would show up in the solve
// path's allocation gates. With a typed parameter the boxing happens
// inside the method, behind the nil check.

// SetAttrInt records an integer annotation.
func (s *Span) SetAttrInt(key string, v int64) {
	if s == nil {
		return
	}
	s.SetAttr(key, v)
}

// SetAttrFloat records a float annotation.
func (s *Span) SetAttrFloat(key string, v float64) {
	if s == nil {
		return
	}
	s.SetAttr(key, v)
}

// SetAttrStr records a string annotation.
func (s *Span) SetAttrStr(key, v string) {
	if s == nil {
		return
	}
	s.SetAttr(key, v)
}

// SetAttrBool records a boolean annotation.
func (s *Span) SetAttrBool(key string, v bool) {
	if s == nil {
		return
	}
	s.SetAttr(key, v)
}

// Duration returns the span's duration: final once finished, the
// running elapsed time before that, 0 for a nil span.
func (s *Span) Duration() time.Duration {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.done {
		return s.dur
	}
	return time.Since(s.start)
}

// Node is the immutable wire form of one span, shaped for JSON: the
// slow-query log, paqld's "trace":true responses, and paqlcli -trace
// all carry this type.
type Node struct {
	Name string `json:"name"`
	// StartMS is the span's start offset from the trace root in
	// milliseconds; DurationMS its duration.
	StartMS    float64        `json:"start_ms"`
	DurationMS float64        `json:"duration_ms"`
	Attrs      map[string]any `json:"attrs,omitempty"`
	Children   []*Node        `json:"children,omitempty"`
	// DroppedChildren counts children beyond MaxChildren that were not
	// recorded.
	DroppedChildren int `json:"dropped_children,omitempty"`
}

// Node snapshots the span tree rooted at s. Unfinished spans report
// their running duration. Nil-safe: a nil span yields a nil node.
func (s *Span) Node() *Node {
	if s == nil {
		return nil
	}
	return s.node(s.start)
}

func (s *Span) node(base time.Time) *Node {
	s.mu.Lock()
	n := &Node{
		Name:            s.name,
		StartMS:         float64(s.start.Sub(base)) / float64(time.Millisecond),
		DurationMS:      float64(s.dur) / float64(time.Millisecond),
		DroppedChildren: s.dropped,
	}
	if !s.done {
		n.DurationMS = float64(time.Since(s.start)) / float64(time.Millisecond)
	}
	if len(s.attrs) > 0 {
		n.Attrs = make(map[string]any, len(s.attrs))
		for _, a := range s.attrs {
			n.Attrs[a.key] = a.val
		}
	}
	children := make([]*Span, len(s.children))
	copy(children, s.children)
	s.mu.Unlock()
	for _, c := range children {
		n.Children = append(n.Children, c.node(base))
	}
	return n
}

// ctxKey carries the current span on a context.
type ctxKey struct{}

// ContextWith returns ctx carrying sp as the current span. Do not
// pass a literal nil span to disable tracing — simply don't attach one
// (the obsctx lint check enforces this); with a nil sp, ctx is
// returned unchanged.
func ContextWith(ctx context.Context, sp *Span) context.Context {
	if sp == nil {
		return ctx
	}
	return context.WithValue(ctx, ctxKey{}, sp)
}

// FromContext returns the current span, or nil when the context
// carries none (tracing off).
func FromContext(ctx context.Context) *Span {
	sp, _ := ctx.Value(ctxKey{}).(*Span)
	return sp
}

// Start begins a child of the context's current span and returns a
// context carrying it. With tracing off (no span on ctx) it returns
// ctx unchanged and a nil span — one Value lookup, no allocation.
func Start(ctx context.Context, name string) (context.Context, *Span) {
	parent := FromContext(ctx)
	if parent == nil {
		return ctx, nil
	}
	c := parent.Child(name)
	if c == nil {
		return ctx, nil
	}
	return context.WithValue(ctx, ctxKey{}, c), c
}
