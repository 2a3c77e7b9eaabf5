// Package b compares another package's sentinel through a selector.
package b

import "repro/a"

// CrossPackage must be caught just like a local comparison.
func CrossPackage(err error) bool {
	return err == a.ErrFoo // want `ErrFoo compared with ==`
}
