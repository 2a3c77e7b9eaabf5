package repl

import (
	"os"
	"path/filepath"
	"testing"
)

// TestSaveStateAtomic pins what the replication state file inherits
// from the store's one atomic writer: the state round-trips, a save that
// cannot stage its temp file fails without touching the state already on
// disk, and no temp file outlives a save — successful or not.
func TestSaveStateAtomic(t *testing.T) {
	old := persistentState{Epoch: 3}
	next := persistentState{Epoch: 4, FencedBy: 4}
	cases := []struct {
		name    string
		prepare func(t *testing.T, dir string)
		wantErr bool
		want    persistentState
	}{
		{"fresh directory", func(*testing.T, string) {}, false, next},
		{"overwrite", func(t *testing.T, dir string) {
			if err := saveState(dir, old); err != nil {
				t.Fatal(err)
			}
		}, false, next},
		{"stale temp file from a crash", func(t *testing.T, dir string) {
			if err := os.WriteFile(filepath.Join(dir, stateFile+".tmp"), []byte("{torn"), 0o644); err != nil {
				t.Fatal(err)
			}
		}, false, next},
		{"temp file cannot be staged", func(t *testing.T, dir string) {
			if err := saveState(dir, old); err != nil {
				t.Fatal(err)
			}
			// A directory in the temp file's place blocks the write even
			// for root, where a read-only directory would not.
			if err := os.Mkdir(filepath.Join(dir, stateFile+".tmp"), 0o755); err != nil {
				t.Fatal(err)
			}
		}, true, old},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := filepath.Join(t.TempDir(), "data")
			if err := os.MkdirAll(dir, 0o755); err != nil {
				t.Fatal(err)
			}
			tc.prepare(t, dir)
			if err := saveState(dir, next); (err != nil) != tc.wantErr {
				t.Fatalf("saveState err = %v, want error: %v", err, tc.wantErr)
			}
			got, err := loadState(dir)
			if err != nil || got != tc.want {
				t.Fatalf("loadState = (%+v, %v), want %+v", got, err, tc.want)
			}
			if fi, err := os.Stat(filepath.Join(dir, stateFile+".tmp")); err == nil && !fi.IsDir() {
				t.Error("temp file left behind")
			}
		})
	}
}
