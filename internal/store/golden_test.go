package store

import (
	"bytes"
	"encoding/hex"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/partition"
	"repro/internal/relation"
)

// The on-disk formats, byte for byte, as written by the commit
// before the codec was merged into one place (PR 15). A diff here means
// existing data directories and follower streams stop being readable:
// bump the magic's version digit and write a migration, don't edit hex.
const (
	goldenWAL = `
		50415157414c30311c00000013883b3b0104020d000000000000f83f04766567
		61d804000000000000c0bf0005000000918288be020602010319000000c02cb0
		8403080100808080808040000000000000064006ceb2204f7269`

	goldenSnapshot = `
		504151534e4150318c00000000000000079ea7ce040573746172730302696401
		036d616700046e616d650204000204060000000000000000000000000000d03f
		000000000000e03f000000000000e83f03732d3003732d3103732d3203732d33
		0101036d616702000000000000e03f020202000101000000000000c03f000000
		000000c03f02020101000000000000e43f000000000000c03f02020101000300`
)

func unhex(t testing.TB, s string) []byte {
	t.Helper()
	b, err := hex.DecodeString(strings.Join(strings.Fields(s), ""))
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestOnDiskFormatsPinned writes a three-column store through the API
// that predates the merged codec and compares wal.paqlog and
// snapshot.paqsnap with the committed bytes, then
// reads the committed bytes back to the values that produced them.
func TestOnDiskFormatsPinned(t *testing.T) {
	rel := storeFixtureRel(t, 4)
	schema := rel.Schema()
	inserted := [][]relation.Value{
		{relation.I(-7), relation.F(1.5), relation.S("vega")},
		{relation.I(300), relation.F(-0.125), relation.S("")},
	}
	deleted := []int{1, 3}
	updatedRows := []int{0}
	updated := [][]relation.Value{{relation.I(1 << 40), relation.F(2.75), relation.S("β Ori")}}
	snap := &Snapshot{
		Version: 4,
		Rel:     rel,
		Parts: []PartState{{
			Attrs: []string{"mag"}, Tau: 2, Omega: 0.5, Workers: 1,
			Groups: []partition.Group{
				{Rows: []int{0, 1}, Centroid: []float64{0.125}, Radius: 0.125},
				{Rows: []int{2, 3}, Centroid: []float64{0.625}, Radius: 0.125},
			},
			Stats: partition.MaintStats{Inserts: 2, Deletes: 2, Updates: 1, Splits: 1, Heals: 3},
		}},
	}

	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.LogInsert(schema, 4, inserted); err != nil {
		t.Fatal(err)
	}
	if err := s.LogDelete(6, deleted); err != nil {
		t.Fatal(err)
	}
	if err := s.LogUpdate(schema, 8, updatedRows, updated); err != nil {
		t.Fatal(err)
	}
	// The WAL is compared before the snapshot truncates it.
	files := []struct{ name, golden string }{
		{walFile, goldenWAL}, {snapFile, goldenSnapshot},
	}
	for _, f := range files {
		if f.name == snapFile {
			if err := s.WriteSnapshot(snap); err != nil {
				t.Fatal(err)
			}
		}
		got, err := os.ReadFile(filepath.Join(dir, f.name))
		if err != nil {
			t.Fatal(err)
		}
		if want := unhex(t, f.golden); !bytes.Equal(got, want) {
			t.Errorf("%s moved:\n got %x\nwant %x", f.name, got, want)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if t.Failed() {
		return
	}

	// Read side: the committed bytes, not the ones just written.
	dir = t.TempDir()
	for _, f := range files {
		if err := os.WriteFile(filepath.Join(dir, f.name), unhex(t, f.golden), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	s, err = Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	boot := s.BootSnapshot()
	if boot == nil || boot.Version != snap.Version || boot.Rel.Name() != rel.Name() {
		t.Fatalf("boot snapshot = %+v", boot)
	}
	relsEqual(t, rel, boot.Rel)
	if !reflect.DeepEqual(boot.Parts, snap.Parts) {
		t.Fatalf("partitionings = %+v, want %+v", boot.Parts, snap.Parts)
	}
	var recs []*Record
	if err := s.Replay(schema, func(r *Record) error {
		recs = append(recs, r)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	want := []*Record{
		{Kind: KindInsert, PreVersion: 4, Rows: inserted},
		{Kind: KindDelete, PreVersion: 6, Indices: deleted},
		{Kind: KindUpdate, PreVersion: 8, Indices: updatedRows, Rows: updated},
	}
	if !reflect.DeepEqual(recs, want) {
		t.Fatalf("replayed %+v, want %+v", recs, want)
	}
}
