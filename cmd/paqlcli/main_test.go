package main

import (
	"errors"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/relation"
	"repro/internal/workload"
	"repro/paq"
)

// writeGalaxyCSV materializes a small galaxy CSV for CLI runs.
func writeGalaxyCSV(t *testing.T, n int, seed int64) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "galaxy.csv")
	if err := relation.SaveCSV(workload.Galaxy(n, seed), path); err != nil {
		t.Fatal(err)
	}
	return path
}

func baseOpts(data string) options {
	return options{
		dataPath: data,
		method:   "auto",
		tauFrac:  0.10,
		timeout:  20 * time.Second,
		maxNodes: paq.DefaultNodeLimit,
	}
}

// Regression: every parse failure must exit 2, whether or not -explain
// is set — an unparseable query combined with -explain used to be able
// to slip through the generic error path as exit 1/0.
func TestParseFailuresExitTwo(t *testing.T) {
	data := writeGalaxyCSV(t, 60, 1)
	for _, explain := range []bool{false, true} {
		o := baseOpts(data)
		o.explain = explain
		o.queryText = "SELECT GARBAGE("
		truncated, err := run(o)
		if err == nil {
			t.Fatalf("explain=%v: unparseable query did not fail", explain)
		}
		var pe *paq.ParseError
		if !errors.As(err, &pe) {
			t.Fatalf("explain=%v: error %v is not a ParseError", explain, err)
		}
		if code := exitCode(err, truncated); code != 2 {
			t.Errorf("explain=%v: exit code %d for a parse failure, want 2", explain, code)
		}
	}

	// Semantic (validation) failures are parse failures too.
	o := baseOpts(data)
	o.explain = true
	o.queryText = "SELECT PACKAGE(X) AS P FROM galaxy G" // PACKAGE alias not in FROM
	_, err := run(o)
	if code := exitCode(err, false); err == nil || code != 2 {
		t.Errorf("validation failure: err=%v code=%d, want exit 2", err, code)
	}
}

func TestUsageFailuresExitTwo(t *testing.T) {
	cases := []options{
		{},                // no -data
		baseOpts("x.csv"), // no query at all
		func() options { // bad method name
			o := baseOpts("x.csv")
			o.queryText = "q"
			o.method = "quantum"
			return o
		}(),
	}
	for i, o := range cases {
		if o.method == "" {
			o.method = "auto"
		}
		_, err := run(o)
		if err == nil {
			t.Fatalf("case %d: expected a usage error", i)
		}
		if code := exitCode(err, false); code != 2 {
			t.Errorf("case %d: exit code %d, want 2 (err: %v)", i, code, err)
		}
	}
}

func TestOperationalFailuresExitOne(t *testing.T) {
	o := baseOpts(filepath.Join(t.TempDir(), "missing.csv"))
	o.queryText = "q"
	_, err := run(o)
	if err == nil {
		t.Fatal("missing data file must fail")
	}
	if code := exitCode(err, false); code != 1 {
		t.Errorf("I/O failure exit code %d, want 1", code)
	}
	if code := exitCode(nil, true); code != 2 {
		t.Errorf("truncated incumbent exit code %d, want 2", code)
	}
	if code := exitCode(nil, false); code != 0 {
		t.Errorf("clean run exit code %d, want 0", code)
	}
}

// The -append path: rows from a second CSV are ingested before solving
// and show up in the answer.
func TestAppendPath(t *testing.T) {
	data := writeGalaxyCSV(t, 80, 2)

	// The appended rows carry an unmistakably dominant petrorad.
	extraRel := workload.Galaxy(3, 99)
	for _, i := range extraRel.AllRows() {
		if err := extraRel.Set(i, extraRel.Schema().Lookup("petrorad"), relation.F(10_000)); err != nil {
			t.Fatal(err)
		}
	}
	extra := filepath.Join(t.TempDir(), "extra.csv")
	if err := relation.SaveCSV(extraRel, extra); err != nil {
		t.Fatal(err)
	}

	o := baseOpts(data)
	o.appendPath = extra
	o.queryText = `SELECT PACKAGE(G) AS P FROM galaxy G REPEAT 0
SUCH THAT COUNT(P.*) = 3
MAXIMIZE SUM(P.petrorad)`
	o.outPath = filepath.Join(t.TempDir(), "pkg.csv")
	truncated, err := run(o)
	if err != nil || truncated {
		t.Fatalf("run: truncated=%v err=%v", truncated, err)
	}
	pkg, err := relation.LoadCSV(o.outPath)
	if err != nil {
		t.Fatal(err)
	}
	col := pkg.Schema().Lookup("petrorad")
	if pkg.Len() != 3 {
		t.Fatalf("package has %d tuples, want 3", pkg.Len())
	}
	for i := 0; i < pkg.Len(); i++ {
		if pkg.Float(i, col) != 10_000 {
			t.Fatalf("package tuple %d has petrorad %g; the appended rows did not win", i, pkg.Float(i, col))
		}
	}
	if err := os.Remove(o.outPath); err != nil {
		t.Fatal(err)
	}
}

// captureStdout runs fn with os.Stdout redirected into a pipe and
// returns everything it printed.
func captureStdout(t *testing.T, fn func()) string {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	orig := os.Stdout
	os.Stdout = w
	defer func() { os.Stdout = orig }()
	done := make(chan string)
	go func() {
		b, _ := io.ReadAll(r)
		done <- string(b)
	}()
	fn()
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	os.Stdout = orig
	return <-done
}

// Regression: -explain on a valid query must exit 0 and print the
// plan's adaptive block — the advisor's decision is part of EXPLAIN
// output, not an internal detail.
func TestExplainPrintsAdaptiveBlock(t *testing.T) {
	data := writeGalaxyCSV(t, 60, 1)
	o := baseOpts(data)
	o.explain = true
	o.queryText = `SELECT PACKAGE(G) AS P FROM galaxy G
SUCH THAT COUNT(P.*) = 2
MAXIMIZE SUM(P.petrorad)`

	var truncated bool
	var err error
	out := captureStdout(t, func() { truncated, err = run(o) })
	if err != nil {
		t.Fatalf("explain run failed: %v", err)
	}
	if code := exitCode(err, truncated); code != 0 {
		t.Errorf("explain run exit code %d, want 0", code)
	}
	if !strings.Contains(out, "adaptive:") {
		t.Errorf("-explain output missing the adaptive block:\n%s", out)
	}
	if !strings.Contains(out, "method:") {
		t.Errorf("-explain output missing the method line:\n%s", out)
	}

	// And the exit-code matrix must hold on the same query when it is
	// broken: -explain never masks a parse failure as success.
	o.queryText = "SELECT PACKAGE("
	truncated, err = run(o)
	if err == nil {
		t.Fatal("broken query with -explain did not fail")
	}
	if code := exitCode(err, truncated); code != 2 {
		t.Errorf("broken query with -explain exit code %d, want 2", code)
	}
}

// TestDataDirReopen covers the durable-CLI lifecycle: the first run
// seeds -data-dir from the CSV and ingests extra rows; the second run
// reopens the directory alone — no -data — and must see the ingested
// rows with the partitioning warm-started from disk.
func TestDataDirReopen(t *testing.T) {
	data := writeGalaxyCSV(t, 80, 2)
	stateDir := filepath.Join(t.TempDir(), "state")

	extraRel := workload.Galaxy(3, 99)
	for _, i := range extraRel.AllRows() {
		if err := extraRel.Set(i, extraRel.Schema().Lookup("petrorad"), relation.F(10_000)); err != nil {
			t.Fatal(err)
		}
	}
	extra := filepath.Join(t.TempDir(), "extra.csv")
	if err := relation.SaveCSV(extraRel, extra); err != nil {
		t.Fatal(err)
	}

	query := `SELECT PACKAGE(G) AS P FROM galaxy G REPEAT 0
SUCH THAT COUNT(P.*) = 3
MAXIMIZE SUM(P.petrorad)`

	// Run 1: seed the store and ingest the dominant rows.
	o := baseOpts(data)
	o.dataDir = stateDir
	o.appendPath = extra
	o.queryText = query
	o.outPath = filepath.Join(t.TempDir(), "pkg1.csv")
	if truncated, err := run(o); err != nil || truncated {
		t.Fatalf("seeding run: truncated=%v err=%v", truncated, err)
	}

	// Run 2: no -data, no -append — everything comes back from disk,
	// including the ingested rows.
	o2 := baseOpts("")
	o2.dataDir = stateDir
	o2.queryText = query
	o2.outPath = filepath.Join(t.TempDir(), "pkg2.csv")
	if truncated, err := run(o2); err != nil || truncated {
		t.Fatalf("reopen run: truncated=%v err=%v", truncated, err)
	}
	pkg, err := relation.LoadCSV(o2.outPath)
	if err != nil {
		t.Fatal(err)
	}
	col := pkg.Schema().Lookup("petrorad")
	if pkg.Len() != 3 {
		t.Fatalf("package has %d tuples, want 3", pkg.Len())
	}
	for i := 0; i < pkg.Len(); i++ {
		if pkg.Float(i, col) != 10_000 {
			t.Fatalf("reopened session lost the ingested rows (petrorad %g)", pkg.Float(i, col))
		}
	}
}
