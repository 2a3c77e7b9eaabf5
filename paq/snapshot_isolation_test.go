package paq_test

import (
	"context"
	"math"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/relation"
	"repro/internal/reltest"
	"repro/paq"
)

// versionImage is the serial twin of one dataset version: the live rows
// (in live order) with their cost and gain cells.
type versionImage struct {
	rows []int
	cost []float64
	gain []float64
}

func captureImage(s *paq.Session) versionImage {
	var img versionImage
	s.View(func(rel *relation.Relation) {
		rows := rel.AllRows()
		img.rows = append([]int(nil), rows...)
		img.cost = make([]float64, len(rows))
		img.gain = make([]float64, len(rows))
		for i, row := range rows {
			img.cost[i] = rel.Float(row, 0)
			img.gain[i] = rel.Float(row, 1)
		}
	})
	return img
}

// solveRecord is one concurrent solve's observation: the version it was
// pinned at and the package it returned.
type solveRecord struct {
	version uint64
	rows    []int
	size    int
	obj     float64
}

// runIsolationWorkload drives nSolves concurrent solves per worker
// against a session while the calling goroutine applies a randomized
// Insert/Delete/Update/Compact stream, recording a serial-twin image of
// every version the mutator creates. It returns the version history and
// every solve's observation.
func runIsolationWorkload(t *testing.T, sess *paq.Session, query string, ops int) (map[uint64]versionImage, []solveRecord) {
	t.Helper()
	history := map[uint64]versionImage{sess.Version(): captureImage(sess)}

	const workers, solvesPer = 3, 10
	recs := make([][]solveRecord, workers)
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			stmt, err := sess.Prepare(query)
			if err != nil {
				t.Errorf("worker %d prepare: %v", g, err)
				return
			}
			for i := 0; i < solvesPer; i++ {
				res, err := stmt.Execute(context.Background())
				if err != nil {
					t.Errorf("worker %d solve %d: %v", g, i, err)
					return
				}
				recs[g] = append(recs[g], solveRecord{
					version: res.Version,
					rows:    res.Rows,
					size:    res.Size,
					obj:     res.Objective,
				})
			}
		}(g)
	}

	// The mutation stream runs on the test goroutine, racing the solves.
	// After each op the dataset is quiescent from the mutator's side, so
	// the captured image is exactly the new version's content.
	rng := rand.New(rand.NewSource(7))
	for op := 0; op < ops; op++ {
		var live []int
		sess.View(func(rel *relation.Relation) { live = rel.AllRows() })
		switch k := rng.Float64(); {
		case op > 0 && op%20 == 0:
			// Compaction renumbers head; pinned solves must keep their
			// pre-compaction row sets (and partitionings must remap).
			if _, err := sess.Compact(); err != nil {
				t.Fatalf("op %d compact: %v", op, err)
			}
		case k < 0.4 || len(live) < 60:
			if _, _, err := sess.InsertRows([][]relation.Value{durRow(rng)}); err != nil {
				t.Fatalf("op %d insert: %v", op, err)
			}
		case k < 0.7:
			if _, err := sess.DeleteRows([]int{live[rng.Intn(len(live))]}); err != nil {
				t.Fatalf("op %d delete: %v", op, err)
			}
		default:
			if _, err := sess.UpdateRows([]int{live[rng.Intn(len(live))]}, [][]relation.Value{durRow(rng)}); err != nil {
				t.Fatalf("op %d update: %v", op, err)
			}
		}
		history[sess.Version()] = captureImage(sess)
	}
	wg.Wait()

	var all []solveRecord
	for _, rs := range recs {
		all = append(all, rs...)
	}
	return history, all
}

// checkAgainstTwin asserts one solve's package is consistent with the
// serial twin of the version it reports: every package row was live at
// that version, and the package satisfies the query's constraints and
// objective over that version's cell values. A solve that read head
// state from any other version (a torn read) fails here.
func checkAgainstTwin(t *testing.T, rec solveRecord, history map[uint64]versionImage) {
	t.Helper()
	img, ok := history[rec.version]
	if !ok {
		t.Errorf("solve reports version %d, which the mutator never produced (torn version)", rec.version)
		return
	}
	at := make(map[int]int, len(img.rows)) // row index → position
	for i, row := range img.rows {
		at[row] = i
	}
	if rec.size != 4 {
		t.Errorf("solve at v%d returned size %d, want 4", rec.version, rec.size)
		return
	}
	var cost, gain float64
	for _, row := range rec.rows {
		i, live := at[row]
		if !live {
			t.Errorf("solve at v%d packaged row %d, which was not live at that version", rec.version, row)
			return
		}
		cost += img.cost[i]
		gain += img.gain[i]
	}
	if cost > 25+1e-6 {
		t.Errorf("solve at v%d: package cost %.9f violates SUM(cost) <= 25 over that version's cells", rec.version, cost)
	}
	if math.Abs(gain-rec.obj) > 1e-6 {
		t.Errorf("solve at v%d: reported objective %.9f but that version's cells sum to %.9f", rec.version, rec.obj, gain)
	}
}

// twinObjective re-solves the query serially over a fresh relation
// holding exactly one version's content (same live order), with the
// same method — the ground truth a pinned DIRECT solve must match
// bit-for-bit.
func twinObjective(t *testing.T, img versionImage, query string) float64 {
	t.Helper()
	rel := relation.New("items", reltest.Schema(
		relation.Column{Name: "cost", Type: relation.Float},
		relation.Column{Name: "gain", Type: relation.Float},
	))
	for i := range img.rows {
		reltest.Append(rel, relation.F(img.cost[i]), relation.F(img.gain[i]))
	}
	twin, err := paq.Open(paq.Table(rel), paq.WithMethod(paq.MethodDirect), paq.WithoutCache())
	if err != nil {
		t.Fatal(err)
	}
	stmt, err := twin.Prepare(query)
	if err != nil {
		t.Fatal(err)
	}
	res, err := stmt.Execute(context.Background())
	if err != nil {
		t.Fatalf("twin solve at a recorded version: %v", err)
	}
	return res.Objective
}

// TestSolveSnapshotIsolationDirect is the end-to-end MVCC property
// test: DIRECT solves race a randomized mutation stream (including
// compactions), and every solve must be answerable entirely from the
// version it pinned — same row set, same constraint arithmetic, and the
// exact objective a serial solve over that version produces.
func TestSolveSnapshotIsolationDirect(t *testing.T) {
	sess, err := paq.Open(paq.Table(durTable(t, 120, 7)),
		paq.WithMethod(paq.MethodDirect), paq.WithoutCache())
	if err != nil {
		t.Fatal(err)
	}
	history, recs := runIsolationWorkload(t, sess, durQuery, 80)
	if t.Failed() {
		return
	}
	twins := make(map[uint64]float64)
	for _, rec := range recs {
		checkAgainstTwin(t, rec, history)
		if t.Failed() {
			return
		}
		want, ok := twins[rec.version]
		if !ok {
			want = twinObjective(t, history[rec.version], durQuery)
			twins[rec.version] = want
		}
		// DIRECT is deterministic over a fixed row set: a pinned solve and
		// the serial twin see identical ILPs, so the optima are identical.
		if rec.obj != want {
			t.Errorf("solve at v%d: objective %v, serial twin %v", rec.version, rec.obj, want)
		}
	}
	t.Logf("verified %d concurrent solves across %d versions", len(recs), len(history))
}

// TestSolveSnapshotIsolationSketchRefine runs the same interleaving
// through SketchRefine, whose partitioning maintenance (splits, merges,
// compaction remaps) rides along with the mutation stream. SketchRefine
// is approximate, so there is no twin-objective identity; the isolation
// claims still hold exactly: every package is built from rows live at
// the pinned version and priced with that version's cells.
func TestSolveSnapshotIsolationSketchRefine(t *testing.T) {
	sess, err := paq.Open(paq.Table(durTable(t, 120, 9)), durOpts()...)
	if err != nil {
		t.Fatal(err)
	}
	history, recs := runIsolationWorkload(t, sess, durQuery, 80)
	if t.Failed() {
		return
	}
	for _, rec := range recs {
		checkAgainstTwin(t, rec, history)
	}
	t.Logf("verified %d concurrent solves across %d versions", len(recs), len(history))
}
