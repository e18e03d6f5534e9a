package lint

import "testing"

// TestFloatOrder runs maprange over the cases the deleted floatorder
// analyzer used to own: every unordered float accumulation still fails
// the gate, now at its range statement.
func TestFloatOrder(t *testing.T) {
	runFixture(t, MapRange, fixtureConfig(), "floatorder")
}
