package a_test

import (
	"testing"

	"xtest/b"
)

// TestPeek calls a test-only method on a value from a package that
// imports a: it type-checks only against b's test variant.
func TestPeek(t *testing.T) {
	if b.New().Peek() != 0 {
		t.Fatal("a fresh T holds a value")
	}
	sum := 0
	for _, v := range map[int]int{1: 1} { // want `range over map`
		sum += v
	}
	_ = sum
}
