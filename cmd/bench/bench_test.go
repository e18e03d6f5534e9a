package main

import (
	"strings"
	"testing"

	"cbar/internal/sim"
)

// BenchmarkStep runs every row of sim.StepBenchSuite through the body
// cmd/bench records BENCH_step.json with:
//
//	go test -run=NONE -bench 'Step/SmallBase$' -benchmem ./cmd/bench
func BenchmarkStep(b *testing.B) {
	for _, row := range sim.StepBenchSuite() {
		var cyclesPerOp float64
		b.Run(strings.TrimPrefix(row.Name, "Step"), rowBench(row, &cyclesPerOp))
	}
}
