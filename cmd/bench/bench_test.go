package main

import (
	"encoding/json"
	"os"
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

// TestBaselineRowsMatchSuite: the tracked baseline and the suite name the
// same rows. -compare skips a row present on one side only, so without
// this a row left behind by a deleted suite entry, or a new entry never
// recorded, would go unnoticed.
func TestBaselineRowsMatchSuite(t *testing.T) {
	data, err := os.ReadFile("../../BENCH_step.json")
	if err != nil {
		t.Fatal(err)
	}
	var base Report
	if err := json.Unmarshal(data, &base); err != nil {
		t.Fatal(err)
	}
	suite := make(map[string]bool)
	for _, row := range sim.StepBenchSuite() {
		suite[row.Name] = true
	}
	recorded := make(map[string]bool)
	for _, b := range base.Benchmarks {
		if !suite[b.Name] {
			t.Errorf("BENCH_step.json row %s names no sim.StepBenchSuite row", b.Name)
		}
		recorded[b.Name] = true
	}
	for _, row := range sim.StepBenchSuite() {
		if !recorded[row.Name] {
			t.Errorf("sim.StepBenchSuite row %s is missing from BENCH_step.json", row.Name)
		}
	}
}
