package paq

import (
	"context"
	"errors"
	"fmt"
	"strings"

	"repro/internal/core"
	"repro/internal/naive"
	"repro/internal/paql"
	"repro/internal/relation"
	"repro/internal/sketchrefine"
)

// The typed error taxonomy. Every failure mode of the internal solve
// path maps onto exactly one of these sentinels (or *ParseError), and
// the mapping preserves the original error chain: errors.Is also still
// matches the underlying cause (e.g. context.DeadlineExceeded under
// ErrTimeout).
var (
	// ErrInfeasible: no package satisfies the query — a definitive
	// verdict about the query, not a failure.
	ErrInfeasible = errors.New("paq: no package satisfies the query")
	// ErrTimeout: the evaluation deadline (context deadline) expired
	// before an answer was proven.
	ErrTimeout = errors.New("paq: evaluation deadline exceeded")
	// ErrBudget: a solver resource budget — branch-and-bound nodes, the
	// per-ILP time limit, the variable load limit, or the naive
	// baseline's enumeration budget — was exhausted. A retry with a
	// larger budget could succeed; the reproduction of the paper's
	// solver failures.
	ErrBudget = errors.New("paq: solver budget exhausted")
	// ErrTypeMismatch: the query applies an operation to a column of the
	// wrong type (e.g. summing a string column).
	ErrTypeMismatch = errors.New("paq: type mismatch")
	// ErrUnsupported: the chosen method cannot express the query (e.g.
	// the naive baseline without an exact cardinality constraint).
	ErrUnsupported = errors.New("paq: unsupported by the chosen method")
	// ErrIndeterminate: a durable session's write-ahead commit (fsync)
	// failed AFTER the mutation was applied in memory. The mutation is
	// visible to queries at the returned version, its record may already
	// be on disk, and a later snapshot persists the in-memory state — so
	// it may well survive a crash despite the error. Callers must not
	// blindly retry (a retry that succeeds duplicates the mutation);
	// they should consult Version/DurStats and treat the outcome as
	// unknown until the store heals. Mutations that fail BEFORE being
	// applied (validation, staging) are ordinary errors, not this one.
	ErrIndeterminate = errors.New("paq: durability indeterminate: mutation applied in memory, write-ahead commit failed")
)

// ErrFalseInfeasible marks a SketchRefine "no package found" verdict
// that Theorem 4 does not make definitive: the query is usually
// genuinely infeasible, but a DIRECT retry (or a different
// partitioning) could still find a package. errors.Is(err,
// ErrInfeasible) is also true for it, so callers that don't care about
// the distinction need only one check.
var ErrFalseInfeasible error = falseInfeasible{}

type falseInfeasible struct{}

// Error implements the error interface.
func (falseInfeasible) Error() string {
	return "paq: no package found (query infeasible, or false infeasibility)"
}

// Is makes ErrFalseInfeasible a subtype of ErrInfeasible for errors.Is.
func (falseInfeasible) Is(target error) bool { return target == ErrInfeasible }

// ParseError is a PaQL parse, validation, or compile failure — the
// query text (not the system) is at fault. Line and Col are 1-based
// positions into the query text; they are zero when the failure has no
// single source location (semantic validation and translation errors).
type ParseError struct {
	Line, Col int
	Msg       string
}

// Error implements the error interface.
func (e *ParseError) Error() string {
	if e.Line > 0 {
		return fmt.Sprintf("paq: parse error at %d:%d: %s", e.Line, e.Col, e.Msg)
	}
	return "paq: parse error: " + e.Msg
}

// taggedError attaches a taxonomy sentinel to an internal cause without
// changing the message: Error() reads like the internal error, while
// errors.Is/As reach both the sentinel and the full cause chain.
type taggedError struct {
	sentinel error
	cause    error
}

// Error implements the error interface, reading like the cause.
func (e *taggedError) Error() string { return e.cause.Error() }

// Unwrap exposes both the sentinel and the cause to errors.Is/As.
func (e *taggedError) Unwrap() []error { return []error{e.sentinel, e.cause} }

func tag(sentinel, cause error) error { return &taggedError{sentinel: sentinel, cause: cause} }

// mapEvalErr maps an internal evaluation failure onto the taxonomy.
func mapEvalErr(err error) error {
	switch {
	case err == nil:
		return nil
	case errors.Is(err, sketchrefine.ErrFalseInfeasible):
		return tag(ErrFalseInfeasible, err)
	case errors.Is(err, core.ErrInfeasible):
		return tag(ErrInfeasible, err)
	case errors.Is(err, context.DeadlineExceeded):
		return tag(ErrTimeout, err)
	case errors.Is(err, context.Canceled):
		return err
	case errors.Is(err, core.ErrResourceLimit), errors.Is(err, naive.ErrTimeout):
		return tag(ErrBudget, err)
	case errors.Is(err, naive.ErrUnsupported):
		return tag(ErrUnsupported, err)
	case errors.Is(err, relation.ErrTypeMismatch):
		return tag(ErrTypeMismatch, err)
	default:
		return err
	}
}

// mapParseErr maps a paql.Parse failure to *ParseError.
func mapParseErr(err error) error {
	if err == nil {
		return nil
	}
	var pe *paql.Error
	if errors.As(err, &pe) {
		return &ParseError{Line: pe.Line, Col: pe.Col, Msg: pe.Msg}
	}
	// Semantic validation failures carry no position; strip the
	// internal prefix so the message reads naturally under ours.
	msg := strings.TrimPrefix(err.Error(), "paql: ")
	return &ParseError{Msg: msg}
}

// mapTranslateErr maps a translation failure: always a *ParseError
// (the query text is at fault), additionally tagged ErrTypeMismatch
// when the query applies an operation to a column of the wrong type.
func mapTranslateErr(err error) error {
	if err == nil {
		return nil
	}
	pe := &ParseError{Msg: strings.TrimPrefix(err.Error(), "translate: ")}
	if errors.Is(err, relation.ErrTypeMismatch) {
		return tag(ErrTypeMismatch, pe)
	}
	return pe
}
