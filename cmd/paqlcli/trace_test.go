package main

import (
	"strings"
	"testing"

	"repro/paq"
)

func TestWriteTrace(t *testing.T) {
	tree := &paq.TraceNode{
		Name: "execute", DurationMS: 100,
		Attrs: map[string]any{"method": "sketchrefine", "cached": false, "plan_ms": 2.5},
		Children: []*paq.TraceNode{
			{Name: "solve", DurationMS: 95, Children: []*paq.TraceNode{
				{Name: "sketch", DurationMS: 40},
				{Name: "refine", DurationMS: 50, DroppedChildren: 3},
			}},
		},
	}
	var b strings.Builder
	writeTrace(&b, tree)
	out := b.String()
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 5 {
		t.Fatalf("got %d lines, want 5:\n%s", len(lines), out)
	}

	// The root reports 100% of itself; children report their share of
	// the parent.
	for want, line := range map[string]int{
		"execute": 0, "solve": 1, "sketch": 2, "refine": 3,
	} {
		if !strings.Contains(lines[line], want) {
			t.Errorf("line %d = %q, want span %q", line, lines[line], want)
		}
	}
	if !strings.Contains(lines[0], "100.0%") {
		t.Errorf("root line %q lacks 100.0%%", lines[0])
	}
	if !strings.Contains(lines[1], "95.0%") {
		t.Errorf("solve line %q lacks 95.0%% of parent", lines[1])
	}
	// sketch is 40ms of solve's 95ms ≈ 42.1%.
	if !strings.Contains(lines[2], "42.1%") {
		t.Errorf("sketch line %q lacks 42.1%% of its parent", lines[2])
	}

	// Depth shows as indentation: sketch sits two levels under the root.
	if !strings.HasPrefix(lines[2], "    sketch") {
		t.Errorf("sketch line %q not indented two levels", lines[2])
	}

	// Attributes render sorted as key=value.
	if !strings.Contains(lines[0], "cached=false method=sketchrefine plan_ms=2.5") {
		t.Errorf("root line %q lacks sorted attrs", lines[0])
	}

	// Dropped children are announced under their parent.
	if !strings.Contains(lines[4], "3 more child span(s) dropped") {
		t.Errorf("dropped line %q lacks the drop notice", lines[4])
	}

	// Nil trace (untraced execution): nothing printed.
	var nb strings.Builder
	writeTrace(&nb, nil)
	if nb.Len() != 0 {
		t.Errorf("nil trace printed %q", nb.String())
	}
}
