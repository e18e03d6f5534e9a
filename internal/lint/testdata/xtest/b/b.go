// Package b depends on a, so a's external test sees b recompiled against
// a's test build.
package b

import "xtest/a"

// New returns an a.T made outside package a.
func New() *a.T { return &a.T{} }
