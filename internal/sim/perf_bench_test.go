package sim

import (
	"testing"

	"cbar/internal/routing"
)

// The Step benchmarks live in cmd/bench (BenchmarkStep over
// StepBenchSuite); this is the one benchmark that is not a Step row.
func BenchmarkBuildNetworkSmall(b *testing.B) {
	c := NewConfig(Small.Params(), routing.Base)
	for i := 0; i < b.N; i++ {
		if _, err := BuildNetwork(c, uint64(i)); err != nil {
			b.Fatal(err)
		}
	}
}
