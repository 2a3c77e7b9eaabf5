package server

import (
	"fmt"
	"path/filepath"
	"sync/atomic"
	"time"

	"repro/internal/relation"
	"repro/paq"
)

// Evaluation methods a dataset serves. NAIVE is deliberately absent: its
// exponential self-join is the paper's cautionary baseline, not something
// a service should expose to untrusted callers. The names resolve
// through paq.ParseMethod — the repository's single source of method
// names.
const (
	MethodDirect       = string(paq.MethodDirect)
	MethodSketchRefine = string(paq.MethodSketchRefine)
)

// DatasetConfig configures dataset registration: the offline
// partitioning warmed at load time and the solver budgets shared by the
// dataset's per-method engines.
type DatasetConfig struct {
	// Attrs are the partitioning attributes. Empty means every numeric
	// column of the relation — a superset of any query's attributes, so
	// SketchRefine can serve arbitrary queries over the dataset. The
	// default is resolved by paq from the relation the session opens
	// over, on every path: a dataset seeded from a relation, reopened from
	// its store, or opened as a follower's replica plans over the same
	// set.
	Attrs []string
	// TauFrac is the partition size threshold as a fraction of the
	// dataset; 0 means 0.10 (the paper's scalability setting).
	TauFrac float64
	// Workers bounds partition-build concurrency; 0 means GOMAXPROCS.
	Workers int
	// TimeLimit, MaxNodes, and Gap are the per-ILP solver budgets.
	// Zero-valued fields get paqld's 30s time limit and paq's defaults
	// otherwise (200k nodes, 1e-4 gap).
	TimeLimit time.Duration
	MaxNodes  int
	Gap       float64
	// Seed steers SketchRefine's refinement order. Fixed per dataset so
	// identical queries give identical answers across requests (and match
	// an in-process evaluation with the same seed).
	Seed int64
	// Racers is ignored: SketchRefine runs one refinement order. The
	// field stays only for the benchmark harness, which still sets it.
	Racers int
	// DataDir, when non-empty, makes the dataset durable: its WAL and
	// snapshots live in DataDir/<name>. If that directory already holds
	// state, registration recovers from it — the recovered dataset wins
	// over the relation passed to NewDataset (which then only seeds a
	// brand-new store, and may be nil).
	DataDir string
}

// options lowers the config to the paq session options of dataset name.
func (c DatasetConfig) options(name string) []paq.Option {
	tl := c.TimeLimit
	if tl == 0 {
		tl = 30 * time.Second
	}
	opts := []paq.Option{
		paq.WithWorkers(c.Workers),
		paq.WithTimeLimit(tl),
		paq.WithSeed(c.Seed),
		paq.WithWarmPartitioning(),
		paq.WithPartitionAttrs(c.Attrs...),
	}
	if c.TauFrac > 0 {
		opts = append(opts, paq.WithTau(c.TauFrac))
	}
	if c.Gap != 0 {
		opts = append(opts, paq.WithGap(c.Gap))
	}
	if c.MaxNodes > 0 {
		opts = append(opts, paq.WithNodeLimit(c.MaxNodes))
	}
	if c.DataDir != "" {
		opts = append(opts, paq.WithDurability(filepath.Join(c.DataDir, name)))
	}
	return opts
}

// Dataset is one registered relation wrapped in a warm paq session: the
// offline partitioning is built at registration, and the session's
// per-method solution caches are shared across all requests that hit
// the dataset.
type Dataset struct {
	name    string
	sess    *paq.Session
	created time.Time
	replica atomic.Bool
}

// NewDataset builds a served dataset, the one constructor for every way
// one is opened: it opens a paq session over the relation with an
// eagerly warmed partitioning (the expensive part of registration) and
// per-method solution caches. With DataDir set the session is durable —
// and if the dataset's store directory already holds state, the
// recovered state replaces rel entirely (its partitionings warm-start
// from disk, skipping the offline build), so rel may be nil: a dataset
// found on disk at boot, or a follower's replica. Otherwise rel must be
// a non-empty relation.
func NewDataset(name string, rel *relation.Relation, cfg DatasetConfig) (*Dataset, error) {
	if name == "" {
		return nil, fmt.Errorf("server: dataset has no name")
	}
	var src paq.Source
	if rel != nil {
		src = paq.Table(rel)
	}
	sess, err := paq.Open(src, cfg.options(name)...)
	if err != nil {
		return nil, fmt.Errorf("server: dataset %q: %w", name, err)
	}
	return &Dataset{name: name, sess: sess, created: time.Now()}, nil
}

// NewDatasetFromSession wraps an existing warm session (e.g. one shared
// with an in-process differential checker) as a served dataset. Clone
// the session first if the caches must stay independent.
func NewDatasetFromSession(name string, sess *paq.Session) (*Dataset, error) {
	if name == "" {
		return nil, fmt.Errorf("server: dataset has no name")
	}
	if sess == nil {
		return nil, fmt.Errorf("server: dataset %q has no session", name)
	}
	return &Dataset{name: name, sess: sess, created: time.Now()}, nil
}

// Name returns the dataset's registry name.
func (d *Dataset) Name() string { return d.name }

// Session returns the dataset's paq session.
func (d *Dataset) Session() *paq.Session { return d.sess }

// Created returns when the dataset object was built — the epoch of its
// per-dataset counters, surfaced as the "since" stamp in /stats.
func (d *Dataset) Created() time.Time { return d.created }

// Rel returns the underlying relation.
func (d *Dataset) Rel() *relation.Relation { return d.sess.Rel() }

// Rows returns the live row count, read under the dataset read lock: a
// concurrent insert or delete moves it.
func (d *Dataset) Rows() int {
	var n int
	d.sess.View(func(rel *relation.Relation) { n = rel.Live() })
	return n
}

// Partitioning describes the warm offline partitioning.
func (d *Dataset) Partitioning() (*paq.PartitionInfo, error) { return d.sess.Partitioning() }

// Version returns the dataset's current version (bumped by every row
// mutation).
func (d *Dataset) Version() uint64 { return d.sess.Version() }

// DurStats reports the dataset's durability state (Durable=false for
// in-memory datasets).
func (d *Dataset) DurStats() paq.DurStats { return d.sess.DurStats() }

// SetReplica marks (or unmarks) the dataset as a replication
// follower. A replica applies its leader's WAL by physical row index,
// so its row layout must never be renumbered out from under the
// stream: background maintenance skips compaction and snapshotting for
// it, and Close preserves the layout (the replica's own WAL carries
// any tombstones across a restart). Promotion clears the mark, after
// which the dataset is maintained like any other.
func (d *Dataset) SetReplica(v bool) { d.replica.Store(v) }

// IsReplica reports whether the dataset is a replication follower.
func (d *Dataset) IsReplica() bool { return d.replica.Load() }

// Close flushes a durable dataset (final snapshot) and closes its
// store; a no-op for in-memory datasets. Replicas close without
// compacting (see SetReplica).
func (d *Dataset) Close() error {
	if d.IsReplica() {
		return d.sess.ClosePreservingLayout()
	}
	return d.sess.Close()
}

// Methods lists the methods the dataset serves, sorted.
func (d *Dataset) Methods() []string {
	return []string{MethodDirect, MethodSketchRefine}
}

// serves reports whether the dataset exposes a method.
func (d *Dataset) serves(m paq.Method) bool {
	return m == paq.MethodDirect || m == paq.MethodSketchRefine
}
