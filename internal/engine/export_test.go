package engine

import "testing"

// SetMaxEntries lowers the cache bound for the rest of t.
func SetMaxEntries(t testing.TB, n int) {
	old := maxEntries
	maxEntries = n
	t.Cleanup(func() { maxEntries = old })
}
