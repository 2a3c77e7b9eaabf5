// Package a declares module sentinels and compares them every way.
package a

import (
	"errors"
	"io"
)

// ErrFoo and ErrBar are package sentinels wrapped by the taxonomy.
var (
	ErrFoo = errors.New("foo")
	ErrBar = errors.New("bar")
)

// Is makes wrapped a member of ErrFoo's family: the sanctioned home of
// identity comparison.
func (wrapped) Is(target error) bool { return target == ErrFoo }

// Check exercises positive and negative cases.
func Check(err error) bool {
	if err == ErrFoo { // want `ErrFoo compared with ==`
		return true
	}
	if err != ErrBar { // want `ErrBar compared with !=`
		return false
	}
	switch err {
	case ErrFoo: // want `switch case compares ErrFoo by identity`
		return true
	case nil:
		return false
	}
	if errors.Is(err, ErrFoo) { // errors.Is is the correct form
		return true
	}
	return err == io.EOF || err == io.ErrUnexpectedEOF // stdlib sentinels are returned unwrapped
}
