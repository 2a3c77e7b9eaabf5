package store

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/partition"
	"repro/internal/relation"
	"repro/internal/reltest"
)

func storeFixtureRel(t *testing.T, n int) *relation.Relation {
	t.Helper()
	r := relation.New("stars", reltest.Schema(
		relation.Column{Name: "id", Type: relation.Int},
		relation.Column{Name: "mag", Type: relation.Float},
		relation.Column{Name: "name", Type: relation.String},
	))
	for i := 0; i < n; i++ {
		reltest.Append(r, relation.I(int64(i)), relation.F(float64(i)*0.25), relation.S(fmt.Sprintf("s-%d", i)))
	}
	return r
}

func relsEqual(t *testing.T, a, b *relation.Relation) {
	t.Helper()
	if a.Len() != b.Len() || a.Live() != b.Live() {
		t.Fatalf("Len/Live %d/%d vs %d/%d", a.Len(), a.Live(), b.Len(), b.Live())
	}
	if !a.Schema().Equal(b.Schema()) {
		t.Fatalf("schemas differ: %s vs %s", a.Schema(), b.Schema())
	}
	for r := 0; r < a.Len(); r++ {
		for c := 0; c < a.Schema().Len(); c++ {
			if !a.Value(r, c).Equal(b.Value(r, c)) {
				t.Fatalf("cell (%d,%d): %v vs %v", r, c, a.Value(r, c), b.Value(r, c))
			}
		}
	}
}

func TestSnapshotRoundTrip(t *testing.T) {
	rel := storeFixtureRel(t, 200)
	p, err := partition.Build(rel, partition.Options{Attrs: []string{"mag"}, SizeThreshold: 25})
	if err != nil {
		t.Fatal(err)
	}
	snap := &Snapshot{
		Version: 42,
		Rel:     rel,
		Parts: []PartState{{
			Attrs: p.Attrs, Tau: p.Tau, Omega: p.Omega, Workers: p.Workers,
			Groups: p.Groups,
			Stats:  partition.MaintStats{Inserts: 7, Splits: 2},
		}},
	}
	path := filepath.Join(t.TempDir(), snapFile)
	if err := writeSnapshotFile(path, snap); err != nil {
		t.Fatal(err)
	}
	got, err := readSnapshotFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Version != 42 {
		t.Fatalf("version = %d, want 42", got.Version)
	}
	relsEqual(t, rel, got.Rel)
	if len(got.Parts) != 1 {
		t.Fatalf("parts = %d, want 1", len(got.Parts))
	}
	ps := got.Parts[0]
	if ps.Tau != p.Tau || ps.Omega != p.Omega || len(ps.Groups) != len(p.Groups) {
		t.Fatalf("partitioning state drifted: τ=%d ω=%g groups=%d", ps.Tau, ps.Omega, len(ps.Groups))
	}
	if ps.Stats.Inserts != 7 || ps.Stats.Splits != 2 {
		t.Fatalf("maint stats drifted: %+v", ps.Stats)
	}
	// The restored groups must reconstruct an invariant-clean partitioning.
	q, err := partition.FromGroups(got.Rel, ps.Attrs, ps.Tau, ps.Omega, ps.Workers, ps.Groups)
	if err != nil {
		t.Fatal(err)
	}
	if err := q.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestSnapshotRejectsTombstones(t *testing.T) {
	rel := storeFixtureRel(t, 10)
	if err := rel.Delete(3); err != nil {
		t.Fatal(err)
	}
	_, err := encodeSnapshot(&Snapshot{Version: 1, Rel: rel})
	if err == nil {
		t.Fatal("encodeSnapshot accepted an uncompacted relation")
	}
}

func TestSnapshotCorruptionDetected(t *testing.T) {
	rel := storeFixtureRel(t, 50)
	path := filepath.Join(t.TempDir(), snapFile)
	if err := writeSnapshotFile(path, &Snapshot{Version: 1, Rel: rel}); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Flip a payload byte: the checksum must catch it.
	data[len(data)/2] ^= 0xFF
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := readSnapshotFile(path); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("err = %v, want ErrCorrupt", err)
	}
}

// TestStoreLogSnapshotReplayCycle exercises the full cycle: log
// mutations, snapshot, log more, reopen, and verify the replay skips
// what the snapshot folded in and delivers the suffix.
func TestStoreLogSnapshotReplayCycle(t *testing.T) {
	dir := t.TempDir()
	rel := storeFixtureRel(t, 20)
	schema := rel.Schema()

	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if s.BootSnapshot() != nil {
		t.Fatal("fresh store reports a boot snapshot")
	}
	// Two records pre-snapshot (versions 0 and 1), snapshot at version 2,
	// one record post-snapshot (version 2).
	if err := s.LogInsert(schema, 0, [][]relation.Value{rel.Row(0)}); err != nil {
		t.Fatal(err)
	}
	if err := s.LogDelete(1, []int{5}); err != nil {
		t.Fatal(err)
	}
	if err := s.WriteSnapshot(&Snapshot{Version: 2, Rel: rel}); err != nil {
		t.Fatal(err)
	}
	if got := s.Stats().WALBytes; got != int64(len(walMagic)) {
		t.Fatalf("WAL not truncated after snapshot: %d bytes", got)
	}
	if err := s.LogUpdate(schema, 2, []int{3}, [][]relation.Value{rel.Row(4)}); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	boot := s2.BootSnapshot()
	if boot == nil || boot.Version != 2 {
		t.Fatalf("boot snapshot = %+v, want version 2", boot)
	}
	relsEqual(t, rel, boot.Rel)
	var kinds []Kind
	if err := s2.Replay(schema, func(rec *Record) error {
		kinds = append(kinds, rec.Kind)
		if rec.PreVersion != 2 {
			t.Fatalf("replayed record at preversion %d, want 2", rec.PreVersion)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(kinds) != 1 || kinds[0] != KindUpdate {
		t.Fatalf("replayed kinds = %v, want [update]", kinds)
	}
	if got := s2.Stats().ReplayedOps; got != 1 {
		t.Fatalf("ReplayedOps = %d, want 1", got)
	}
}

// TestStoreSnapshotCrashWindow simulates the crash between snapshot
// rename and WAL truncation: replay must skip the records the snapshot
// already folded in.
func TestStoreSnapshotCrashWindow(t *testing.T) {
	dir := t.TempDir()
	rel := storeFixtureRel(t, 10)
	schema := rel.Schema()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.LogInsert(schema, 0, [][]relation.Value{rel.Row(0)}); err != nil {
		t.Fatal(err)
	}
	if err := s.LogInsert(schema, 1, [][]relation.Value{rel.Row(1)}); err != nil {
		t.Fatal(err)
	}
	// Write the snapshot file directly — bypassing WriteSnapshot's WAL
	// truncation — as if the process died right after the rename.
	if err := writeSnapshotFile(filepath.Join(dir, snapFile), &Snapshot{Version: 2, Rel: rel}); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if s2.BootSnapshot() == nil {
		t.Fatal("no boot snapshot")
	}
	replayed := 0
	if err := s2.Replay(schema, func(*Record) error {
		replayed++
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if replayed != 0 {
		t.Fatalf("replayed %d stale records, want 0 (snapshot folded them in)", replayed)
	}
}

func TestRecordRoundTrip(t *testing.T) {
	rel := storeFixtureRel(t, 5)
	schema := rel.Schema()
	ins, err := EncodeRecord(schema, &Record{Kind: KindInsert, PreVersion: 9, Rows: [][]relation.Value{rel.Row(0), rel.Row(1)}})
	if err != nil {
		t.Fatal(err)
	}
	rec, err := DecodeRecord(schema, ins)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Kind != KindInsert || rec.PreVersion != 9 || rec.Ops() != 2 {
		t.Fatalf("decoded %+v", rec)
	}
	for c := range rec.Rows[1] {
		if !rec.Rows[1][c].Equal(rel.Value(1, c)) {
			t.Fatalf("cell %d: %v vs %v", c, rec.Rows[1][c], rel.Value(1, c))
		}
	}
	del, err := EncodeRecord(schema, &Record{Kind: KindDelete, PreVersion: 10, Indices: []int{1, 4}})
	if err != nil {
		t.Fatal(err)
	}
	rec, err = DecodeRecord(schema, del)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Kind != KindDelete || len(rec.Indices) != 2 || rec.Indices[1] != 4 {
		t.Fatalf("decoded %+v", rec)
	}
	upd, err := EncodeRecord(schema, &Record{Kind: KindUpdate, PreVersion: 11, Indices: []int{2}, Rows: [][]relation.Value{rel.Row(3)}})
	if err != nil {
		t.Fatal(err)
	}
	rec, err = DecodeRecord(schema, upd)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Kind != KindUpdate || rec.Indices[0] != 2 || !rec.Rows[0][0].Equal(rel.Value(3, 0)) {
		t.Fatalf("decoded %+v", rec)
	}
	// Malformed payloads are typed corruption, never a panic.
	for _, bad := range [][]byte{{}, {99}, ins[:len(ins)-3], append(append([]byte(nil), ins...), 0x1)} {
		if _, err := DecodeRecord(schema, bad); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("DecodeRecord(%v) err = %v, want ErrCorrupt", bad, err)
		}
	}
}
