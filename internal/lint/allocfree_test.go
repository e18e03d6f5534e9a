package lint

import (
	"path/filepath"
	"testing"
)

// TestAllocFreeFixture drives the allocfree analyzer over a synthetic
// hot loop with the hot/cold/pooled registries populated fixture-locally.
func TestAllocFreeFixture(t *testing.T) {
	const p = "fixture/allocfree"
	cfg := fixtureConfig()
	cfg.DeterministicPkgs = []string{p}
	cfg.HotPath = []string{p + ".Engine.step"}
	cfg.HotPathMethods = []string{"Route"}
	cfg.ColdPath = []string{p + ".Engine.audit"}
	cfg.PooledSlices = []FieldRef{{Type: p + ".Engine", Field: "ring"}}
	// The fixture package is treated as the entire program.
	dir := filepath.Join("testdata", "src", "allocfree")
	pkg, err := LoadFixture(moduleDir, dir)
	if err != nil {
		t.Fatal(err)
	}
	diffWants(t, dir, AllocFree(NewProgram([]*Package{pkg}, cfg)))
}
