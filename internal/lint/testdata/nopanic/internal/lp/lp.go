// Package lp is on the no-panic path.
package lp

import (
	"log"
	"os"
)

// Do shows every banned call.
func Do(n int) error {
	if n == 0 {
		panic("zero") // want `panic on the query path`
	}
	if n == 1 {
		log.Fatalf("one: %d", n) // want `log\.Fatalf on the query path`
	}
	if n == 2 {
		os.Exit(2) // want `os\.Exit on the query path`
	}
	return nil
}
