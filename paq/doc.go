// Package paq is the embeddable SDK for package queries — the stable,
// public entry point to this reproduction of "Scalable Package Queries
// in Relational Database Systems" (Brucato et al., PVLDB 2016).
//
// A package query selects a *set* of tuples (a "package") that
// collectively satisfy global constraints and optimize a global
// objective; PaQL is its declarative SQL-like surface language (see
// docs/PAQL.md for the full language reference). This package wraps the
// whole pipeline — parse → ILP translation → strategy selection →
// solve — behind an explicit prepare/plan/execute lifecycle:
//
//	sess, err := paq.Open(paq.CSV("recipes.csv"))
//	stmt, err := sess.Prepare(`SELECT PACKAGE(R) AS P FROM recipes R ...`)
//	fmt.Println(stmt.Plan())                    // EXPLAIN: method, why, ILP size
//	res, err := stmt.Execute(ctx,
//	    paq.WithIncumbent(func(inc paq.Incumbent) { ... })) // anytime results
//
// # Sessions, statements, plans
//
// A Session is a view onto a dataset: the input relation, the lock
// that orders mutations against solves, the durability store and the
// offline partitionings — lazily built, one per distinct attribute set
// — are owned by the dataset, because the paper makes the partitioning
// a property of the relation, built once and reused by every query. So
// is what describes them: τ, ω and durability are fixed at Open. What
// the Session itself holds is the rest of the configuration and one
// solution cache per evaluation strategy. Session.Clone returns a second
// view onto the same dataset with its own configuration and caches: a
// partitioning either of them
// builds — before or after the Clone — serves both, every mutation
// maintains it once, and Close, Snapshot and DurStats mean the same
// thing on either. A Stmt is a compiled query with a typed Plan — the
// chosen evaluation method and why, the partitioning, and the ILP size —
// so EXPLAIN is a first-class operation. MethodAuto chooses by size
// alone, as the paper does: DIRECT while the eligible tuples fit a
// single ILP (2 000 of them), SketchRefine beyond that. Execute streams improving
// incumbents of the underlying branch-and-bound solve to an optional
// callback, turning every solve into an anytime computation.
//
// # Live datasets
//
// Sessions are not frozen snapshots: InsertRows, DeleteRows, and
// UpdateRows mutate the dataset in place under a monotonically
// increasing version (Session.Version). Mutations maintain every warm
// partitioning incrementally — new rows are routed to the nearest leaf
// cell, overfull cells split, underfull cells merge into their nearest
// sibling — instead of repartitioning from scratch, and solution-cache
// entries computed against older versions stop matching and are
// reclaimed (CacheStats.Invalidations). Prepared statements stay valid:
// their next Execute sees the new data. SketchRefine's approximation
// guarantees degrade gracefully under maintenance: the session tracks a
// sound upper bound on every group radius and exposes the resulting
// factor via Session.QualityBound; see ExampleSession_InsertRows.
//
// # Durability
//
// Sessions are in-memory by default; WithDurability(dir) makes one
// persistent. Every mutation batch is appended to a checksummed
// write-ahead log — with group-commit fsync batching — before it is
// applied, so an acknowledged mutation survives a crash;
// Session.Snapshot (and Session.Close) folds the log into a compact
// snapshot that also serializes every warm partitioning and its
// maintenance state, reclaiming tombstoned rows via Session.Compact
// along the way. Reopening the directory recovers the dataset —
// snapshot plus WAL replay — with partitionings warm-started instead of
// rebuilt, so a restarted service skips the offline quad-tree cost
// SketchRefine amortizes. See Session.DurStats,
// ExampleSession_durability, and docs/PERSISTENCE.md for formats and
// the recovery protocol.
//
// # Errors
//
// Failures are reported through a typed error taxonomy — ErrInfeasible,
// ErrTimeout, ErrBudget, ErrTypeMismatch, ErrUnsupported, and
// *ParseError — with full errors.Is/As support; see errors.go.
//
// Every consumer in this repository (paqlcli, paqld, the benchmark
// harness, and all examples) builds on this package alone.
package paq
