// Package obs declares its span parameters unqualified.
package obs

// ContextWith takes a span in its second position.
func ContextWith(ctx any, sp *Span) any { return ctx }
