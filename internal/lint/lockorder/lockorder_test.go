package lockorder_test

import (
	"testing"

	"repro/internal/lint/analysistest"
	"repro/internal/lint/lockorder"
)

// TestFixtures proves mu-under-syncMu and naked cond waits are caught
// while the established order, explicit releases, branch-local lock
// state, and goroutine bodies stay clean.
func TestFixtures(t *testing.T) {
	a := lockorder.New(lockorder.Config{
		Packages: []string{"fixture/a"},
		Order:    []string{"mu", "syncMu"},
		Cond:     "syncCond",
	})
	analysistest.Run(t, "testdata", a, "./a")
}

// TestPaqFixtures is the SDK's instance — a chain of four mutexes on
// three structs, read locks included: good.go stays clean, every
// inversion in bad.go is caught.
func TestPaqFixtures(t *testing.T) {
	a := lockorder.New(lockorder.Config{
		Packages: []string{"fixture/paq"},
		Order:    []string{"dataMu", "building", "regMu", "mu"},
	})
	analysistest.Run(t, "testdata", a, "./paq")
}
