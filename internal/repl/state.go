package repl

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"

	"repro/internal/store"
)

// stateFile is the node's durable replication identity, stored at the
// root of the data dir (next to the per-dataset store directories).
// Without it, epochs and fences live only in memory: an ex-leader
// fenced at epoch N would restart as an unfenced epoch-1 leader and
// accept writes again — split brain the moment clients retry against
// it. Persisting the pair makes fencing survive the restart, and lets
// a promoted leader keep its adopted epoch.
const stateFile = "repl_state.json"

// persistentState is the on-disk form of the node's replication
// identity.
type persistentState struct {
	// Epoch is the highest leader epoch this node has adopted (leaders)
	// or observed on its leader's stream (followers).
	Epoch uint64 `json:"epoch"`
	// FencedBy is the epoch that fenced this node; 0 when unfenced.
	FencedBy uint64 `json:"fenced_by"`
}

// loadState reads the persisted replication state; a missing file is a
// zero state (fresh node), a corrupt one an error — guessing at an
// epoch risks exactly the split brain the file prevents.
func loadState(dataDir string) (persistentState, error) {
	var st persistentState
	data, err := os.ReadFile(filepath.Join(dataDir, stateFile))
	if os.IsNotExist(err) {
		return st, nil
	}
	if err != nil {
		return st, fmt.Errorf("repl: reading %s: %w", stateFile, err)
	}
	if err := json.Unmarshal(data, &st); err != nil {
		return st, fmt.Errorf("repl: corrupt %s: %w", stateFile, err)
	}
	return st, nil
}

// saveState atomically replaces the replication state file through the
// store's one atomic writer, so a crash leaves either the old state or
// the new, never a torn file — and a directory fsync the filesystem
// refuses (EPERM) is tolerated here exactly as it is for snapshots.
func saveState(dataDir string, st persistentState) error {
	if err := os.MkdirAll(dataDir, 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(st)
	if err != nil {
		return err
	}
	return store.WriteFileAtomic(filepath.Join(dataDir, stateFile), append(data, '\n'))
}
