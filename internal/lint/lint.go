// Package lint assembles the project's invariant checks: six
// analyzers (lockorder instantiated twice) (see docs/INVARIANTS.md for the catalogue) instantiated
// with the repository's boundary, taxonomy, context, lock-order, and
// no-panic configuration. cmd/paqlint runs them standalone and as a
// `go vet -vettool`; the fixture suites under each analyzer package
// prove every check still fires.
//
// The analysis framework is a self-contained mirror of
// golang.org/x/tools/go/analysis (see internal/lint/analysis): the
// build is hermetic — standard library only — so the x/tools module is
// deliberately not imported.
package lint

import (
	"repro/internal/lint/analysis"
	"repro/internal/lint/ctxflow"
	"repro/internal/lint/errcmp"
	"repro/internal/lint/lockorder"
	"repro/internal/lint/nopanic"
	"repro/internal/lint/obsctx"
	"repro/internal/lint/sdkboundary"
)

// Module is the module path all configuration below is anchored to.
const Module = "repro"

// SDKConsumers are the package trees that must consume the solve path
// exclusively through repro/paq (PR 3's boundary).
var SDKConsumers = []string{
	Module + "/cmd",
	Module + "/examples",
	Module + "/internal/bench",
}

// SDKForbidden are the solve-path internals no consumer may import.
// internal/relation (the data container) and internal/workload
// (synthetic data generators) are deliberately absent — they carry
// data, not evaluation. The sync test in lint_test.go asserts this
// list tracks the actual internal/ directory set.
var SDKForbidden = []string{
	Module + "/internal/advisor",
	Module + "/internal/core",
	Module + "/internal/engine",
	Module + "/internal/ilp",
	Module + "/internal/lp",
	Module + "/internal/naive",
	Module + "/internal/paql",
	Module + "/internal/partition",
	Module + "/internal/sketchrefine",
	Module + "/internal/translate",
}

// NoPanicPackages are the query-path libraries bound by PR 2's
// crash-proofing: anything a paqld request can reach. Excluded, with
// reasons: internal/workload (boot-time synthetic generators fed by
// program constants, never by requests), internal/bench (the
// experiment harness is a consumer, not a serving path), and
// internal/lint (developer tooling, never linked into paqld).
var NoPanicPackages = []string{
	Module + "/paq",
	Module + "/internal/advisor",
	Module + "/internal/core",
	Module + "/internal/engine",
	Module + "/internal/ilp",
	Module + "/internal/lp",
	Module + "/internal/naive",
	Module + "/internal/obs",
	Module + "/internal/paql",
	Module + "/internal/par",
	Module + "/internal/partition",
	Module + "/internal/relation",
	Module + "/internal/repl",
	Module + "/internal/server",
	Module + "/internal/sketchrefine",
	Module + "/internal/store",
	Module + "/internal/translate",
}

// Analyzers returns the full paqlint suite, project-configured.
func Analyzers() []*analysis.Analyzer {
	return []*analysis.Analyzer{
		sdkboundary.New(sdkboundary.Config{
			Consumers: SDKConsumers,
			Forbidden: SDKForbidden,
		}),
		errcmp.New(errcmp.Config{
			PackagePrefixes: []string{Module},
		}),
		ctxflow.New(ctxflow.Config{
			Packages:    []string{Module},
			BanPackages: []string{Module + "/internal/bench"},
		}),
		lockorder.New(lockorder.Config{
			Packages: []string{Module + "/internal/store"},
			Order:    []string{"mu", "syncMu"},
			Cond:     "syncCond",
		}),
		lockorder.New(lockorder.Config{
			Packages: []string{Module + "/paq"},
			Order:    []string{"dataMu", "building", "regMu", "mu"},
		}),
		nopanic.New(nopanic.Config{
			Packages: NoPanicPackages,
		}),
		obsctx.New(obsctx.Config{
			Packages:    []string{Module},
			SpanPackage: Module + "/internal/obs",
			SpanType:    "Span",
		}),
	}
}
