package server

import (
	"context"
	"encoding/json"
	"net/http/httptest"
	"slices"
	"testing"

	"repro/internal/relation"
	"repro/internal/workload"
	"repro/paq"
)

func durableConfig(dataDir string) DatasetConfig {
	cfg := testDatasetConfig()
	cfg.DataDir = dataDir
	return cfg
}

// TestDrainReopenZeroLoss is the satellite regression: mutations
// acknowledged over HTTP, a graceful drain (Shutdown + CloseDatasets),
// and a fresh server over the same data dir must agree on every row —
// zero acknowledged mutations lost, partitionings warm-started.
func TestDrainReopenZeroLoss(t *testing.T) {
	dataDir := t.TempDir()

	srv := New(Config{})
	ds, err := NewDataset("galaxy", workload.Galaxy(300, 3), durableConfig(dataDir))
	if err != nil {
		t.Fatal(err)
	}
	srv.Register(ds)
	ts := httptest.NewServer(srv.Handler())
	client := ts.Client()
	mutURL := ts.URL + "/datasets/galaxy/rows"

	// Acknowledged mutations: two inserts, one delete, one update.
	status, body := postJSON(t, client, mutURL, MutateRequest{Insert: [][]any{
		galaxyRowJSON(9001, 10, 20, 18, 17.5, 17, 16.8, 16.5, 0.8, 9.5, 16.9),
		galaxyRowJSON(9002, 11, 21, 18.2, 17.6, 17.1, 16.9, 16.6, 0.9, 9.6, 17.0),
	}})
	if status != 200 {
		t.Fatalf("insert: status %d: %s", status, body)
	}
	var ins MutateResponse
	if err := json.Unmarshal(body, &ins); err != nil {
		t.Fatal(err)
	}
	if status, body = postJSON(t, client, mutURL, MutateRequest{Delete: []int{5}}); status != 200 {
		t.Fatalf("delete: status %d: %s", status, body)
	}
	if status, body = postJSON(t, client, mutURL, MutateRequest{Update: []UpdateRow{{
		Row:    ins.InsertedRows[0],
		Values: galaxyRowJSON(9001, 12, 22, 18.4, 17.8, 17.3, 17.1, 16.8, 1.0, 9.7, 17.1),
	}}}); status != 200 {
		t.Fatalf("update: status %d: %s", status, body)
	}

	wantVersion := ds.Version()
	wantLive := ds.Rel().Live()
	// Close flushes with a compaction (there is one tombstone), which is
	// one more version bump.
	if ds.Rel().Len() != ds.Rel().Live() {
		wantVersion++
	}

	// Graceful shutdown: drain, then flush every durable dataset.
	if err := srv.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	ts.Close()
	if err := srv.CloseDatasets(); err != nil {
		t.Fatal(err)
	}

	// "Restart": a fresh server recovers the dataset from disk alone.
	srv2 := New(Config{})
	ds2, err := NewDataset("galaxy", nil, durableConfig(dataDir))
	if err != nil {
		t.Fatal(err)
	}
	defer ds2.Close()
	srv2.Register(ds2)
	if got := ds2.Version(); got != wantVersion {
		t.Fatalf("recovered version %d, want %d", got, wantVersion)
	}
	if got := ds2.Rel().Live(); got != wantLive {
		t.Fatalf("recovered %d live rows, want %d", got, wantLive)
	}
	d := ds2.DurStats()
	if !d.Durable || d.WarmPartitionings == 0 {
		t.Fatalf("recovery did not warm-start partitionings: %+v", d)
	}
	if d.ReplayedOps != 0 {
		t.Fatalf("graceful drain left %d ops in the WAL", d.ReplayedOps)
	}
	// The recovered dataset serves queries and reports durability in
	// /stats.
	ts2 := httptest.NewServer(srv2.Handler())
	defer ts2.Close()
	status, body = postJSON(t, ts2.Client(), ts2.URL+"/query", QueryRequest{
		Dataset: "galaxy",
		Query: `SELECT PACKAGE(G) AS P FROM galaxy G REPEAT 0
SUCH THAT COUNT(P.*) = 2 MAXIMIZE SUM(P.petrorad)`,
		Method: MethodSketchRefine,
	})
	if status != 200 {
		t.Fatalf("query after recovery: status %d: %s", status, body)
	}
	stats := srv2.Stats()
	dstat, ok := stats.Datasets["galaxy"]
	if !ok || dstat.Durability == nil {
		t.Fatalf("stats carry no durability block: %+v", dstat)
	}
	if dstat.Durability.SnapshotVersion != wantVersion {
		t.Fatalf("stats snapshot_version = %d, want %d", dstat.Durability.SnapshotVersion, wantVersion)
	}
}

// templateRun is one SketchRefine evaluation of a workload template:
// the partitioning its plan names and the objective it returned.
type templateRun struct {
	attrs     []string
	groups    int
	objective float64
	err       error
}

// runTemplates evaluates every non-hard Galaxy template with
// SketchRefine on the dataset.
func runTemplates(t *testing.T, ds *Dataset, queries []workload.Query) map[string]templateRun {
	t.Helper()
	out := make(map[string]templateRun)
	for _, q := range queries {
		if q.Hard {
			continue
		}
		st, err := ds.Session().Prepare(q.PaQL, paq.WithMethod(paq.MethodSketchRefine))
		if err != nil {
			t.Fatalf("%s: prepare: %v", q.Name, err)
		}
		pi := st.Plan().Partitioning
		if pi == nil {
			t.Fatalf("%s: SketchRefine plan names no partitioning", q.Name)
		}
		run := templateRun{attrs: pi.Attrs, groups: pi.Groups}
		res, err := st.Execute(context.Background())
		if run.err = err; err == nil {
			run.objective = res.Objective
		}
		out[q.Name] = run
	}
	return out
}

// TestReopenPlansAsBeforeDrain: a durable dataset registered with the
// default (empty) Attrs and reopened from its store alone plans every
// non-hard Galaxy template over the partitioning it planned over before
// the drain, returns the same objective bit for bit, and builds no
// partitioning to do so.
func TestReopenPlansAsBeforeDrain(t *testing.T) {
	dataDir := t.TempDir()
	cfg := durableConfig(dataDir)
	if len(cfg.Attrs) != 0 {
		t.Fatalf("fixture sets Attrs %v; the test is about the default", cfg.Attrs)
	}
	srv := New(Config{})
	ds, err := NewDataset("galaxy", workload.Galaxy(1000, 3), cfg)
	if err != nil {
		t.Fatal(err)
	}
	srv.Register(ds)
	// Inserts only: the drain then folds the WAL without compacting, so
	// the reopened dataset is at the version the templates ran at.
	pool := workload.Galaxy(1100, 3)
	var rows [][]relation.Value
	for i := 1000; i < pool.Len(); i++ {
		rows = append(rows, pool.Row(i))
	}
	if _, _, err := ds.Session().InsertRows(rows); err != nil {
		t.Fatal(err)
	}
	queries, err := workload.GalaxyQueries(ds.Rel())
	if err != nil {
		t.Fatal(err)
	}
	before, version := runTemplates(t, ds, queries), ds.Version()
	if err := srv.CloseDatasets(); err != nil {
		t.Fatal(err)
	}

	ds2, err := NewDataset("galaxy", nil, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer ds2.Close()
	if got := ds2.Version(); got != version {
		t.Fatalf("reopened at version %d, want %d", got, version)
	}
	after := runTemplates(t, ds2, queries)
	if len(before) == 0 {
		t.Fatal("no non-hard templates ran")
	}
	for name, b := range before {
		a := after[name]
		if !slices.Equal(a.attrs, b.attrs) || a.groups != b.groups {
			t.Errorf("%s: reopened plan partitions on %v (%d groups), before the drain on %v (%d groups)",
				name, a.attrs, a.groups, b.attrs, b.groups)
		}
		if (a.err == nil) != (b.err == nil) || a.objective != b.objective {
			t.Errorf("%s: reopened answered %g (err %v), before the drain %g (err %v)",
				name, a.objective, a.err, b.objective, b.err)
		}
	}
	if got := ds2.Session().PartBuilds(); got != 0 {
		t.Errorf("reopened session built %d partitionings, want 0 (warm-started)", got)
	}
}

// TestMaintainOnceCompactsTombstones is the tombstone-growth
// regression: after a delete-heavy workload pushes the tombstone ratio
// past the threshold, the maintenance pass must shrink the
// memory-resident physical row count.
func TestMaintainOnceCompactsTombstones(t *testing.T) {
	srv := New(Config{TombstoneRatio: 0.25})
	ds, err := NewDataset("galaxy", workload.Galaxy(400, 3), testDatasetConfig())
	if err != nil {
		t.Fatal(err)
	}
	srv.Register(ds)

	// Below the threshold nothing happens.
	if actions := srv.MaintainOnce(); len(actions) != 0 {
		t.Fatalf("maintenance acted below threshold: %v", actions)
	}

	rows := ds.Rel().AllRows()
	if _, err := ds.Session().DeleteRows(rows[:200]); err != nil {
		t.Fatal(err)
	}
	if got := ds.Rel().Len(); got != 400 {
		t.Fatalf("resident rows = %d before maintenance, want 400", got)
	}
	actions := srv.MaintainOnce()
	if len(actions) != 1 {
		t.Fatalf("maintenance actions = %v, want one compaction", actions)
	}
	if got := ds.Rel().Len(); got != 200 {
		t.Fatalf("resident rows = %d after maintenance, want 200 (memory not reclaimed)", got)
	}
	if got := srv.Stats().Compactions; got != 1 {
		t.Fatalf("stats compactions = %d, want 1", got)
	}
	// The dataset still serves: partitionings were remapped, not broken.
	if ms := ds.Session().MaintStats(); ms.Rebuilds != 0 {
		t.Fatalf("compaction caused %d repartitions", ms.Rebuilds)
	}
	if _, _, err := ds.Session().InsertRows(nil); err != nil {
		t.Fatal(err)
	}
}

// TestMaintainOnceSnapshotsBigWAL: a durable dataset whose WAL outgrew
// the limit is snapshotted (log truncated) by the maintenance pass.
func TestMaintainOnceSnapshotsBigWAL(t *testing.T) {
	dataDir := t.TempDir()
	srv := New(Config{WALMaxBytes: 1024, TombstoneRatio: -1})
	ds, err := NewDataset("galaxy", workload.Galaxy(200, 3), durableConfig(dataDir))
	if err != nil {
		t.Fatal(err)
	}
	defer ds.Close()
	srv.Register(ds)

	full := workload.Galaxy(260, 3)
	var batch [][]any
	for _, i := range full.AllRows()[200:] {
		row := make([]any, full.Schema().Len())
		for c := range row {
			v := full.Value(i, c)
			if n, err := v.Int(); err == nil && c == 0 {
				row[c] = n
				continue
			}
			f, _ := v.Float()
			row[c] = f
		}
		batch = append(batch, row)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	if status, body := postJSON(t, ts.Client(), ts.URL+"/datasets/galaxy/rows",
		MutateRequest{Insert: batch}); status != 200 {
		t.Fatalf("insert: status %d: %s", status, body)
	}
	if d := ds.DurStats(); d.WALBytes <= 1024 {
		t.Fatalf("WAL only %d bytes; fixture too small", d.WALBytes)
	}
	actions := srv.MaintainOnce()
	if len(actions) != 1 {
		t.Fatalf("maintenance actions = %v, want one snapshot", actions)
	}
	if d := ds.DurStats(); d.WALBytes > 64 {
		t.Fatalf("WAL still %d bytes after snapshot", d.WALBytes)
	}
	if got := srv.Stats().Snapshots; got != 1 {
		t.Fatalf("stats snapshots = %d, want 1", got)
	}
}
