// Package lib passes spans to span-taking functions.
package lib

import "repro/internal/obs"

// WithSpan is a span-taking helper.
func WithSpan(sp *obs.Span, n int) int { return n }

// Variadic takes spans variadically.
func Variadic(n int, sps ...*obs.Span) int { return n }

// NotASpan takes an unrelated pointer; nil stays legal.
func NotASpan(p *int) {}

type evaluator struct{}

func (ev *evaluator) prepare(sp *obs.Span) {}

// Run shows the violations and the legal forms.
func Run(sp *obs.Span, ev *evaluator) {
	WithSpan(sp, 1)            // threading the caller's span is the contract
	WithSpan(sp.Child("x"), 2) // a derived child is fine (nil-safe)
	WithSpan(nil, 3)           // want `literal nil \*obs\.Span argument severs the trace`
	Variadic(4, sp, nil)       // want `literal nil \*obs\.Span argument severs the trace`
	NotASpan(nil)              // unrelated nil pointers are not the rule's business
	var unset *obs.Span
	WithSpan(unset, 5)            // a nil-valued variable is the disabled path, not a severed one
	ev.prepare(nil)               // want `literal nil \*obs\.Span argument`
	_ = obs.ContextWith(nil, nil) // want `literal nil \*obs\.Span argument`
}
