package paq

import (
	"fmt"
	"strings"
)

// Method is an evaluation strategy for package queries.
type Method string

// The evaluation methods. This is the single source of method names in
// the repository: command-line flags, service requests, and benchmark
// configurations all resolve through ParseMethod.
const (
	// MethodAuto lets Prepare choose by size alone: DIRECT while the
	// eligible tuples (the rows passing WHERE) fit a single ILP,
	// SKETCHREFINE (over a lazily warmed partitioning) beyond that. The
	// chosen method and the reason are reported in the statement's Plan.
	MethodAuto Method = "auto"
	// MethodDirect is the paper's DIRECT strategy (Section 3): translate
	// the whole query into one ILP and hand it to the solver.
	MethodDirect Method = "direct"
	// MethodSketchRefine is the paper's scalable strategy (Section 4):
	// sketch over group representatives, then refine group by group.
	MethodSketchRefine Method = "sketchrefine"
	// MethodNaive is the traditional-SQL self-join baseline (Section 2);
	// exponential in package cardinality, supported for completeness and
	// the Figure 1 reproduction.
	MethodNaive Method = "naive"
)

// ParseMethod resolves a method name (case-insensitive). The empty
// string means MethodAuto.
func ParseMethod(s string) (Method, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "", "auto":
		return MethodAuto, nil
	case "direct":
		return MethodDirect, nil
	case "sketchrefine":
		return MethodSketchRefine, nil
	case "naive":
		return MethodNaive, nil
	default:
		return "", fmt.Errorf("paq: unknown method %q (want auto, direct, sketchrefine, or naive)", s)
	}
}

// Methods lists the concrete evaluation methods (excluding MethodAuto,
// which is a selection policy, not a strategy).
func Methods() []Method {
	return []Method{MethodDirect, MethodNaive, MethodSketchRefine}
}
