// Package paq is the SDK: inside the boundary, it calls the internals.
package paq

import "repro/internal/engine"
