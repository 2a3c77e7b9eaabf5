package paq_test

import (
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"

	"repro/internal/relation"
	"repro/internal/reltest"
	"repro/paq"
)

// gainQuery aggregates over gain only, so with no WithPartitionAttrs it
// partitions on a different attribute set than durQuery ({cost, gain}).
const gainQuery = `
SELECT PACKAGE(I) AS P FROM items I REPEAT 0
SUCH THAT COUNT(P.*) = 3
MAXIMIZE SUM(P.gain)`

// TestEmptyPartitionAttrsMeanEveryNumericColumn: WithPartitionAttrs with
// no attributes plans every statement over the session-wide set — on a
// fresh Open, on a Clone, and on a reopen from durable state, which
// builds nothing — and a later explicit set still wins.
func TestEmptyPartitionAttrsMeanEveryNumericColumn(t *testing.T) {
	opts := []paq.Option{paq.WithTauTuples(40), paq.WithMethod(paq.MethodSketchRefine),
		paq.WithPartitionAttrs(), paq.WithDurability(t.TempDir())}
	attrsOf := func(s *paq.Session) string {
		t.Helper()
		st, err := s.Prepare(gainQuery)
		if err != nil {
			t.Fatal(err)
		}
		return strings.Join(st.Plan().Partitioning.Attrs, ",")
	}
	s, err := paq.Open(paq.Table(durTable(t, 200, 21)), opts...)
	if err != nil {
		t.Fatal(err)
	}
	if got := attrsOf(s); got != "cost,gain" {
		t.Errorf("open: gain query planned over %q, want every numeric column", got)
	}
	for want, opt := range map[string]paq.Option{"cost,gain": paq.WithPartitionAttrs(), "gain": paq.WithPartitionAttrs("gain")} {
		clone, err := s.Clone(opt)
		if err != nil {
			t.Fatal(err)
		}
		if got := attrsOf(clone); got != want {
			t.Errorf("clone: gain query planned over %q, want %q", got, want)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	re, err := paq.Open(nil, opts...)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if got := attrsOf(re); got != "cost,gain" {
		t.Errorf("reopen: gain query planned over %q, want every numeric column", got)
	}
	if got := re.PartBuilds(); got != 0 {
		t.Errorf("reopen built %d partitionings, want 0", got)
	}
}

// TestClonesShareLaterBuilds: the partitioning registry belongs to the
// dataset, so a partitioning built after Clone() is still built once and
// maintained once, whichever sibling asked first.
func TestClonesShareLaterBuilds(t *testing.T) {
	s, err := paq.Open(paq.Table(durTable(t, 200, 21)),
		paq.WithTauTuples(40), paq.WithMethod(paq.MethodSketchRefine))
	if err != nil {
		t.Fatal(err)
	}
	clone, err := s.Clone()
	if err != nil {
		t.Fatal(err)
	}
	// Racing callers on both siblings queue on the one build.
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		sess := []*paq.Session{s, clone}[i%2]
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := sess.Prepare(durQuery); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	if builds := s.PartBuilds() + clone.PartBuilds(); builds != 1 {
		t.Errorf("siblings paid %d partitioning builds for one attribute set, want 1", builds)
	}
	const k = 7
	rows := make([][]relation.Value, k)
	for i := range rows {
		rows[i] = []relation.Value{relation.F(float64(i + 1)), relation.F(float64(k - i))}
	}
	if _, _, err := clone.InsertRows(rows); err != nil {
		t.Fatal(err)
	}
	for name, sess := range map[string]*paq.Session{"original": s, "clone": clone} {
		if got := sess.MaintStats().Inserts; got != k {
			t.Errorf("%s: %d maintained inserts after one batch of %d rows", name, got, k)
		}
	}
}

// TestCloseKeepsSiblingBuiltPartitionings: a snapshot persists every
// built partitioning of the snapshotting session's shape, whichever
// sibling built it — a restart warm-starts all of them.
func TestCloseKeepsSiblingBuiltPartitionings(t *testing.T) {
	dir := t.TempDir()
	s, err := paq.Open(paq.Table(durTable(t, 200, 22)), durOpts(paq.WithDurability(dir))...)
	if err != nil {
		t.Fatal(err)
	}
	clone, err := s.Clone()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := clone.Prepare(gainQuery); err != nil { // builds {gain}; Open warmed {cost, gain}
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	re, err := paq.Open(nil, durOpts(paq.WithDurability(dir))...)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	reClone, err := re.Clone()
	if err != nil {
		t.Fatal(err)
	}
	for name, sess := range map[string]*paq.Session{"reopened": re, "its clone": reClone} {
		if got := sess.DurStats().WarmPartitionings; got != 2 {
			t.Errorf("%s: %d warm partitionings, want 2", name, got)
		}
	}
	for _, q := range []string{durQuery, gainQuery} {
		if _, err := re.Prepare(q); err != nil {
			t.Fatal(err)
		}
	}
	if builds := re.PartBuilds(); builds != 0 {
		t.Errorf("reopened session rebuilt %d partitionings, want 0", builds)
	}
}

// TestCloneRejectsDatasetOptions: τ, ω and durability are fixed at
// Open, so a Clone that would change one fails — in particular Clone(WithDurability) on an in-memory session, which would
// otherwise return a clone whose mutations are never logged. Options
// that restate the dataset's values, or change only the session, clone.
func TestCloneRejectsDatasetOptions(t *testing.T) {
	s, err := paq.Open(paq.Table(durTable(t, 100, 25)), durOpts()...)
	if err != nil {
		t.Fatal(err)
	}
	for name, o := range map[string]paq.Option{
		"durability":   paq.WithDurability(t.TempDir()),
		"tau":          paq.WithTau(0.5),
		"tau tuples":   paq.WithTauTuples(25),
		"radius limit": paq.WithRadiusLimit(1),
	} {
		if c, err := s.Clone(o); err == nil {
			t.Errorf("Clone changing the %s succeeded (clone durable: %v)", name, c.DurStats().Durable)
		}
	}
	if _, err := s.Clone(paq.WithTauTuples(40), paq.WithoutCache(), paq.WithMethod(paq.MethodDirect)); err != nil {
		t.Errorf("Clone restating τ: %v", err)
	}
}

// TestReopenWithOtherTau: a stored partitioning keeps the τ it was
// built with — reopening the store under another τ warm-starts it with
// no build — while a set first built after the reopen uses the opener's.
func TestReopenWithOtherTau(t *testing.T) {
	dir := t.TempDir()
	s, err := paq.Open(paq.Table(durTable(t, 200, 26)), durOpts(paq.WithDurability(dir))...) // builds {cost, gain} at τ = 40
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	re, err := paq.Open(nil, durOpts(paq.WithTauTuples(25), paq.WithDurability(dir))...)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if got := re.DurStats().WarmPartitionings; got != 1 {
		t.Errorf("%d warm partitionings, want 1", got)
	}
	tau := func(q string) int {
		t.Helper()
		stmt, err := re.Prepare(q)
		if err != nil {
			t.Fatal(err)
		}
		return stmt.Plan().Partitioning.Tau
	}
	if got := tau(durQuery); got != 40 {
		t.Errorf("stored set plans at τ = %d, want the stored 40", got)
	}
	if builds := re.PartBuilds(); builds != 0 {
		t.Errorf("preparing the stored set built %d partitionings, want 0", builds)
	}
	if got := tau(gainQuery); got != 25 {
		t.Errorf("new set built at τ = %d, want the opener's 25", got)
	}
}

// TestFailedOpenReleasesStore: every failing Open over a durable
// directory closes the store it opened — no file handle into the
// directory survives, and where the directory itself is sound a correct
// Open succeeds right after.
func TestFailedOpenReleasesStore(t *testing.T) {
	empty := relation.New("items", reltest.Schema(relation.Column{Name: "cost", Type: relation.Float}))
	good := func(t *testing.T) paq.Source { return paq.Table(durTable(t, 50, 23)) }
	seed := func(t *testing.T, dir string) *paq.Session {
		s, err := paq.Open(good(t), durOpts(paq.WithDurability(dir))...)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	cases := []struct {
		name string
		// prepare leaves dir in the state Open will fail on; it returns the
		// session it left open over dir, if any, which the subtest keeps
		// reachable — collected, its file handles would be finalized shut
		// at an arbitrary point and move the handle count under the check.
		prepare  func(t *testing.T, dir string) *paq.Session
		src      func(t *testing.T) paq.Source
		opts     []paq.Option
		reopenOK bool // the directory holds nothing bad: a correct Open must work
	}{
		{name: "nil source", reopenOK: true},
		{name: "empty source", src: func(*testing.T) paq.Source { return paq.Table(empty) }, reopenOK: true},
		{name: "bad warm attribute", src: good, reopenOK: true,
			opts: []paq.Option{paq.WithPartitionAttrs("no_such_column"), paq.WithWarmPartitioning()}},
		{name: "empty recovered relation", prepare: func(t *testing.T, dir string) *paq.Session {
			s := seed(t, dir)
			if _, err := s.DeleteRows(s.Rel().AllRows()); err != nil {
				t.Fatal(err)
			}
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}
			return nil
		}},
		{name: "corrupt WAL", prepare: func(t *testing.T, dir string) *paq.Session {
			crashed := seed(t, dir)
			applyStream(t, 10, 24, crashed) // then crash: no Close
			walPath := filepath.Join(dir, "wal.paqlog")
			data, err := os.ReadFile(walPath)
			if err != nil {
				t.Fatal(err)
			}
			data[20] ^= 0xFF
			if err := os.WriteFile(walPath, data, 0o644); err != nil {
				t.Fatal(err)
			}
			return crashed
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			if tc.prepare != nil {
				defer runtime.KeepAlive(tc.prepare(t, dir))
			}
			before := handlesInto(t, dir)
			var src paq.Source
			if tc.src != nil {
				src = tc.src(t)
			}
			if _, err := paq.Open(src, append(tc.opts, paq.WithDurability(dir))...); err == nil {
				t.Fatal("Open succeeded")
			}
			if after := handlesInto(t, dir); after != before {
				t.Errorf("failed Open leaked %d file handle(s) into the store directory", after-before)
			}
			if tc.reopenOK {
				s, err := paq.Open(good(t), durOpts(paq.WithDurability(dir))...)
				if err != nil {
					t.Fatalf("directory not re-openable after the failed Open: %v", err)
				}
				if err := s.Close(); err != nil {
					t.Fatal(err)
				}
			}
		})
	}
}

// handlesInto counts this process's open file descriptors that point
// into dir (0 where /proc is unavailable — the re-open check still runs).
func handlesInto(t *testing.T, dir string) int {
	t.Helper()
	fds, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		return 0
	}
	n := 0
	for _, fd := range fds {
		if target, err := os.Readlink(filepath.Join("/proc/self/fd", fd.Name())); err == nil && strings.HasPrefix(target, dir) {
			n++
		}
	}
	return n
}
