package c_test

import (
	"testing"

	"xtest/c"
)

// TestWeights ranges over a map from the package under test.
func TestWeights(t *testing.T) {
	sum := 0
	for _, w := range c.Weights() { // want `range over map`
		sum += w
	}
	if sum != 1 {
		t.Fatal("weights do not sum to 1")
	}
}
