package paq

import (
	"fmt"
	"time"

	"repro/internal/ilp"
	"repro/internal/sketchrefine"
)

// config is the resolved session configuration.
type config struct {
	method     Method
	partAttrs  []string
	tauFrac    float64
	tauAbs     int
	radius     float64
	workers    int
	seed       int64
	timeLimit  time.Duration
	maxNodes   int
	gap        float64
	noCache    bool
	warm       bool
	durDir     string
	noAdvisor  bool
	warmBudget int
}

func defaults() config {
	return config{
		method:     MethodAuto,
		tauFrac:    0.10,
		timeLimit:  60 * time.Second,
		maxNodes:   ilp.DefaultMaxNodes,
		gap:        1e-4,
		warmBudget: DefaultWarmSetBudget,
	}
}

// solverOptions maps the session budgets to the internal solver.
func (c config) solverOptions() ilp.Options {
	return ilp.Options{TimeLimit: c.timeLimit, MaxNodes: c.maxNodes, Gap: c.gap}
}

// sketchOptions is the SketchRefine configuration shared by the engine
// path and the bespoke (row-subset / reseeded) path.
func (s *Session) sketchOptions() sketchrefine.Options {
	return sketchrefine.Options{
		Solver: s.cfg.solverOptions(),
		Seed:   s.cfg.seed,
	}
}

// Option configures a Session at Open (and, for a restricted subset, a
// statement at Prepare).
type Option struct {
	apply func(*config) error
	// prepareOK marks options that are also legal per-statement.
	prepareOK bool
}

func opt(f func(*config) error) Option        { return Option{apply: f} }
func prepareOpt(f func(*config) error) Option { return Option{apply: f, prepareOK: true} }
func applyPrepare(cfg *config, opts []Option) error {
	for _, o := range opts {
		if !o.prepareOK {
			return fmt.Errorf("paq: option is only valid at Open, not Prepare")
		}
		if err := o.apply(cfg); err != nil {
			return err
		}
	}
	return nil
}

// WithMethod fixes the evaluation method instead of letting Prepare
// choose. Valid at Open (session default) and at Prepare (per
// statement).
func WithMethod(m Method) Option {
	return prepareOpt(func(c *config) error {
		if _, err := ParseMethod(string(m)); err != nil {
			return err
		}
		c.method = m
		return nil
	})
}

// WithPartitionAttrs fixes the partitioning attributes for every
// statement (they must be numeric columns). Without it, each statement
// partitions on its own query attributes — the paper's coverage-1
// setting — building (and caching) one partitioning per distinct
// attribute set.
func WithPartitionAttrs(attrs ...string) Option {
	return opt(func(c *config) error {
		if len(attrs) == 0 {
			return fmt.Errorf("paq: WithPartitionAttrs needs at least one attribute")
		}
		c.partAttrs = append([]string(nil), attrs...)
		return nil
	})
}

// WithTau sets the partition size threshold τ as a fraction of the
// relation (default 0.10, the paper's scalability setting).
func WithTau(frac float64) Option {
	return opt(func(c *config) error {
		if frac <= 0 || frac > 1 {
			return fmt.Errorf("paq: tau fraction %g out of (0, 1]", frac)
		}
		c.tauFrac = frac
		c.tauAbs = 0
		return nil
	})
}

// WithTauTuples sets τ as an absolute number of tuples per group,
// overriding WithTau.
func WithTauTuples(tau int) Option {
	return opt(func(c *config) error {
		if tau < 1 {
			return fmt.Errorf("paq: tau must be ≥ 1, got %d", tau)
		}
		c.tauAbs = tau
		return nil
	})
}

// WithRadiusLimit enforces the radius condition ω on every partitioning
// (Definition 2; see RadiusForEpsilon). Zero disables it (the default).
func WithRadiusLimit(omega float64) Option {
	return opt(func(c *config) error {
		c.radius = omega
		return nil
	})
}

// WithWorkers bounds the goroutines used for parallel partitioning and
// batch execution; 0 (the default) means GOMAXPROCS, 1 forces
// sequential execution. Results are identical for every setting.
func WithWorkers(n int) Option {
	return opt(func(c *config) error {
		c.workers = n
		return nil
	})
}

// WithSeed steers SketchRefine's refinement order (Algorithm 2 starts
// from an arbitrary order). Zero (the default) keeps the deterministic
// ascending group order; equal seeds give equal orders.
func WithSeed(seed int64) Option {
	return opt(func(c *config) error {
		c.seed = seed
		return nil
	})
}

// WithTimeLimit bounds wall-clock time per ILP solve (and the naive
// baseline's enumeration). Default 60s.
func WithTimeLimit(d time.Duration) Option {
	return opt(func(c *config) error {
		if d < 0 {
			return fmt.Errorf("paq: negative time limit %v", d)
		}
		c.timeLimit = d
		return nil
	})
}

// DefaultNodeLimit is the branch-and-bound node budget per ILP solve
// when WithNodeLimit is not given — the stand-in for the paper's solver
// memory ceiling.
const DefaultNodeLimit = ilp.DefaultMaxNodes

// WithNodeLimit bounds the branch-and-bound nodes per ILP solve (see
// DefaultNodeLimit).
func WithNodeLimit(n int) Option {
	return opt(func(c *config) error {
		if n < 0 {
			return fmt.Errorf("paq: negative node limit %d", n)
		}
		c.maxNodes = n
		return nil
	})
}

// WithGap sets the relative optimality gap at which the solver stops
// (default 1e-4, CPLEX's default relative MIP gap).
func WithGap(g float64) Option {
	return opt(func(c *config) error {
		if g < 0 {
			return fmt.Errorf("paq: negative gap %g", g)
		}
		c.gap = g
		return nil
	})
}

// WithoutCache disables the per-strategy solution caches: every
// Execute solves afresh.
func WithoutCache() Option {
	return opt(func(c *config) error {
		c.noCache = true
		return nil
	})
}

// WithWarmPartitioning builds the session-wide partitioning eagerly at
// Open — what a long-lived service wants, paying the offline cost at
// registration instead of on the first query.
func WithWarmPartitioning() Option {
	return opt(func(c *config) error {
		c.warm = true
		return nil
	})
}

// WithoutAdvisor disables the session's adaptive planner: MethodAuto
// always follows the fixed heuristic, executions report no outcomes,
// and no attribute-set mining, pre-warming, or eviction happens. The
// seam for A/B comparisons (the bench harness's fixed-heuristic twin)
// and for callers that need byte-stable planning.
func WithoutAdvisor() Option {
	return opt(func(c *config) error {
		c.noAdvisor = true
		return nil
	})
}

// DefaultWarmSetBudget is how many unpinned warm partitionings of its
// shape a session's maintenance pass keeps when WithWarmSetBudget is not
// given.
const DefaultWarmSetBudget = 8

// WithWarmSetBudget bounds the number of warm partitionings of the
// session's shape that the advisor's maintenance pass keeps, whichever
// session built them; the least recently used sets beyond the budget are
// evicted. A session-wide partitioning (of this session or a same-shape
// clone) is pinned and never counts. Negative means unbounded.
func WithWarmSetBudget(n int) Option {
	return opt(func(c *config) error {
		if n == 0 {
			return fmt.Errorf("paq: warm-set budget must be positive (or negative for unbounded)")
		}
		c.warmBudget = n
		return nil
	})
}

// WithDurability makes the session durable, persisting to dir: every
// mutation batch is written ahead to a checksummed WAL (group-commit
// fsynced, so a batch is durable before it is acknowledged), and
// Session.Snapshot / Session.Close fold the log into a compact
// snapshot that also serializes every warm partitioning and its
// maintenance state.
//
// When dir already holds durable state, Open recovers from it instead
// of loading the source: the latest snapshot is loaded, the WAL suffix
// replayed, and partitionings warm-start without repeating the offline
// quad-tree build. The source may then be nil. See docs/PERSISTENCE.md
// for the file formats and the recovery protocol.
func WithDurability(dir string) Option {
	return opt(func(c *config) error {
		if dir == "" {
			return fmt.Errorf("paq: WithDurability needs a directory")
		}
		c.durDir = dir
		return nil
	})
}
