package main

import (
	"bytes"
	"context"
	"strings"
	"testing"
)

// TestUnknownExperimentIsUsageError pins the -exp validation: a
// misspelt experiment name exits 2 and names the valid ones, before any
// dataset is generated — it used to generate both datasets, run
// nothing, and exit 0, silently turning a CI gate off.
func TestUnknownExperimentIsUsageError(t *testing.T) {
	var stdout, stderr bytes.Buffer
	code := run(context.Background(), []string{"-exp", "ingest,recovr"}, &stdout, &stderr)
	if code != 2 {
		t.Fatalf("exit status %d, want 2 (stderr: %s)", code, stderr.String())
	}
	for _, want := range []string{`"recovr"`, "recover", "loadgen", "fig6eps", "all"} {
		if !strings.Contains(stderr.String(), want) {
			t.Errorf("stderr does not mention %s: %s", want, stderr.String())
		}
	}
	if stdout.Len() != 0 {
		t.Errorf("an experiment ran despite the unknown name: %s", stdout.String())
	}
}
