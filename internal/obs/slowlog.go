package obs

import (
	"encoding/json"
	"io"
	"sync"
	"time"
)

// SlowEntry is one slow-query log record: everything needed to answer
// "why was this one solve slow?" after the fact — the plan, the
// version the solve was pinned at, and the span tree. It marshals as
// a single JSON line.
type SlowEntry struct {
	// TS is the wall-clock completion time (RFC3339Nano).
	TS time.Time `json:"ts"`
	// Dataset, Query, and Method identify the request.
	Dataset string `json:"dataset,omitempty"`
	Query   string `json:"query"`
	Method  string `json:"method"`
	// DurationMS is the measured execution time that tripped the
	// threshold.
	DurationMS float64 `json:"duration_ms"`
	// Version is the dataset version the solve was pinned at.
	Version uint64 `json:"version,omitempty"`
	// Cached and Error qualify the outcome.
	Cached bool   `json:"cached,omitempty"`
	Error  string `json:"error,omitempty"`
	// Plan is the statement's typed EXPLAIN output (any JSON-marshalable
	// plan; the paq layer owns the concrete type).
	Plan any `json:"plan,omitempty"`
	// Trace is the execution's span tree.
	Trace *Node `json:"trace,omitempty"`
}

// SlowLog emits one structured JSON line per solve at or above a
// duration threshold. A nil *SlowLog is the disabled log: Observe is
// a no-op returning false.
type SlowLog struct {
	threshold time.Duration

	mu sync.Mutex
	w  io.Writer
}

// NewSlowLog returns a slow-query log writing to w for entries at or
// above threshold. It returns nil — the disabled log — when w is nil
// or the threshold is not positive.
func NewSlowLog(w io.Writer, threshold time.Duration) *SlowLog {
	if w == nil || threshold <= 0 {
		return nil
	}
	return &SlowLog{threshold: threshold, w: w}
}

// Threshold returns the configured threshold (0 for a nil log).
func (l *SlowLog) Threshold() time.Duration {
	if l == nil {
		return 0
	}
	return l.threshold
}

// Observe emits e as one JSON line when its duration is at or above
// the threshold, reporting whether it did. Writes are serialized, so
// concurrent solves never interleave lines. An entry that fails to
// marshal (non-finite float in an attr, say) is dropped — the log
// must never take down the query path.
func (l *SlowLog) Observe(e SlowEntry) bool {
	if l == nil || time.Duration(e.DurationMS*float64(time.Millisecond)) < l.threshold {
		return false
	}
	if e.TS.IsZero() {
		e.TS = time.Now()
	}
	line, err := json.Marshal(e)
	if err != nil {
		return false
	}
	l.mu.Lock()
	_, werr := l.w.Write(append(line, '\n'))
	l.mu.Unlock()
	return werr == nil
}
