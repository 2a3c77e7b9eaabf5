//go:build !race

package bench

// raceEnabled reports whether the tests run under the race detector.
const raceEnabled = false
