package obs

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
	"time"
)

// TestSlowLog: entries below the threshold are dropped, entries at or
// above it emit exactly one JSON line carrying the trace, and a nil
// log is inert.
func TestSlowLog(t *testing.T) {
	var buf bytes.Buffer
	l := NewSlowLog(&buf, 50*time.Millisecond)
	if l.Observe(SlowEntry{Query: "q", DurationMS: 10}) {
		t.Fatal("fast query emitted")
	}
	sp := NewSpan("execute")
	sp.Child("solve").Finish()
	sp.Finish()
	if !l.Observe(SlowEntry{Query: "q", Method: "direct", Dataset: "galaxy",
		DurationMS: 80, Version: 3, Trace: sp.Node()}) {
		t.Fatal("slow query not emitted")
	}
	line := buf.String()
	if strings.Count(line, "\n") != 1 {
		t.Fatalf("expected exactly one line, got %q", line)
	}
	var e SlowEntry
	if err := json.Unmarshal([]byte(line), &e); err != nil {
		t.Fatalf("line is not JSON: %v", err)
	}
	if e.Query != "q" || e.Version != 3 || e.Trace == nil || e.Trace.Name != "execute" ||
		len(e.Trace.Children) != 1 || e.TS.IsZero() {
		t.Fatalf("round-trip lost fields: %+v", e)
	}

	var nilLog *SlowLog
	if nilLog.Observe(SlowEntry{DurationMS: 1e9}) || nilLog.Threshold() != 0 {
		t.Fatal("nil slow log is not inert")
	}
	if NewSlowLog(nil, time.Second) != nil || NewSlowLog(&buf, 0) != nil {
		t.Fatal("disabled configurations must yield the nil log")
	}
}
