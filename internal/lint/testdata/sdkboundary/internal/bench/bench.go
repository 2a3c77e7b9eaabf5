// Package bench is a consumer: the harness measures through the SDK.
package bench

import (
	"repro/internal/engine" // want `imports solve-path package repro/internal/engine directly`
	"repro/paq"
)
