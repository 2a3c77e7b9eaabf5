// Command app is a consumer: it must reach the solve path via paq.
package main

import (
	"repro/internal/core" // want `imports solve-path package repro/internal/core directly`
	"repro/internal/relation"
	"repro/paq"
)
