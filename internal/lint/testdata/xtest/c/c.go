// Package c has external tests only: go list gives it no with-tests
// variant, so the loader type-checks its own listing's files.
package c

// Weights returns a map for the external test to range over.
func Weights() map[string]int { return map[string]int{"a": 1} }
