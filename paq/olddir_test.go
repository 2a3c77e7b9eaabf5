package paq

import (
	"encoding/hex"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// A store directory as an earlier release left it: internal/store's
// golden WAL and snapshot, plus the method-choice advisor's evidence
// sidecar (advisor.paqadv, framed like the snapshot) that release wrote
// beside them. The sidecar is obsolete; nothing reads it any more.
const (
	oldDirWAL = `
		50415157414c30311c00000013883b3b0104020d000000000000f83f04766567
		61d804000000000000c0bf0005000000918288be020602010319000000c02cb0
		8403080100808080808040000000000000064006ceb2204f7269`

	oldDirSnapshot = `
		504151534e4150318c00000000000000079ea7ce040573746172730302696401
		036d616700046e616d650204000204060000000000000000000000000000d03f
		000000000000e03f000000000000e83f03732d3003732d3103732d3203732d33
		0101036d616702000000000000e03f020202000101000000000000c03f000000
		000000c03f02020101000000000000e43f000000000000c03f02020101000300`

	oldDirAdvisor = `
		50415141445630311900000000000000797cdbb37b22736861706573223a7b22
		7131223a7b226e223a337d7d7d`
)

// writeOldDir writes files (name → hex bytes) into a fresh directory.
func writeOldDir(t *testing.T, files map[string]string) string {
	t.Helper()
	dir := t.TempDir()
	for name, hx := range files {
		b, err := hex.DecodeString(strings.Join(strings.Fields(hx), ""))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, name), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

// TestOldDataDirWithAdvisorSidecarOpens: a directory that still holds
// the advisor's sidecar — and a stale temp file from an interrupted
// sidecar write — opens, and recovers the relation and partitionings
// cell for cell as the same directory without them, building nothing.
func TestOldDataDirWithAdvisorSidecarOpens(t *testing.T) {
	files := map[string]string{"wal.paqlog": oldDirWAL, "snapshot.paqsnap": oldDirSnapshot}
	clean := writeOldDir(t, files)
	files["advisor.paqadv"] = oldDirAdvisor
	files["advisor.paqadv.tmp"] = "5041514144563031" // a torn write: the magic alone
	old := writeOldDir(t, files)

	var sess [2]*Session
	for i, dir := range []string{clean, old} {
		s, err := Open(nil, WithDurability(dir))
		if err != nil {
			t.Fatalf("open %s: %v", dir, err)
		}
		defer s.Close()
		if got := s.PartBuilds(); got != 0 {
			t.Errorf("open %s paid %d partitioning builds, want 0", dir, got)
		}
		sess[i] = s
	}
	want, got := sess[0], sess[1]
	gr, wr := got.Rel(), want.Rel()
	if !gr.Schema().Equal(wr.Schema()) || gr.Len() != wr.Len() || gr.Live() != wr.Live() || gr.Version() != wr.Version() {
		t.Fatalf("recovered %s (%d rows, %d live, v%d) beside the sidecar, %s (%d, %d, v%d) without",
			gr.Schema(), gr.Len(), gr.Live(), gr.Version(), wr.Schema(), wr.Len(), wr.Live(), wr.Version())
	}
	for row := 0; row < wr.Len(); row++ {
		if gr.Deleted(row) != wr.Deleted(row) {
			t.Fatalf("row %d: tombstone differs beside the sidecar", row)
		}
		for c := 0; c < wr.Schema().Len(); c++ {
			if g, w := gr.Value(row, c), wr.Value(row, c); !g.Equal(w) {
				t.Fatalf("cell (%d,%d) = %v beside the sidecar, %v without", row, c, g, w)
			}
		}
	}
	parts := func(s *Session) map[string]*partEntry {
		out := make(map[string]*partEntry)
		_ = s.d.each(func(e *partEntry) error {
			out[e.key] = e
			return nil
		})
		return out
	}
	wp, gp := parts(want), parts(got)
	if len(wp) == 0 || len(gp) != len(wp) {
		t.Fatalf("recovered %d partitionings beside the sidecar, %d without", len(gp), len(wp))
	}
	for key, we := range wp {
		ge, ok := gp[key]
		if !ok {
			t.Fatalf("partitioning %q missing beside the sidecar", key)
		}
		w, g := we.part.Load(), ge.part.Load()
		if !reflect.DeepEqual(g.Attrs, w.Attrs) || g.Tau != w.Tau || g.Omega != w.Omega ||
			!reflect.DeepEqual(g.GID, w.GID) || !reflect.DeepEqual(g.Groups, w.Groups) {
			t.Errorf("partitioning %q differs beside the sidecar:\n got %+v\nwant %+v", key, g.Groups, w.Groups)
		}
	}
}
