// Package a exercises the scope rule.
package a

import "context"

func helper(ctx context.Context) {}

// Scoped holds a ctx and mints fresh roots anyway.
func Scoped(ctx context.Context) {
	helper(context.Background()) // want `discards the context.Context already in scope`
	go func() {
		helper(context.TODO()) // want `discards the context.Context already in scope`
	}()
}

// Defaulting is the sanctioned nil-ctx guard.
func Defaulting(ctx context.Context) {
	if ctx == nil {
		ctx = context.Background()
	}
	helper(ctx)
}

// Wrapper has no ctx in scope and the package is not root-banned.
func Wrapper() {
	helper(context.Background())
}

// OwnParam: a literal's own ctx parameter puts one in scope for its body.
func OwnParam() func(context.Context) {
	return func(ctx context.Context) {
		helper(context.Background()) // want `discards the context.Context already in scope`
	}
}
