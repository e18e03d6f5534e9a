package lint

import "testing"

// TestShardIsolationFixture drives the shardisolation analyzer over a
// synthetic mini-engine with every registry populated fixture-locally.
func TestShardIsolationFixture(t *testing.T) {
	const p = "fixture/shardiso"
	cfg := fixtureConfig()
	cfg.DeterministicPkgs = []string{p}
	cfg.ParallelRoots = []string{p + ".Net.stepShard", p + ".Net.handle"}
	cfg.ParallelRootMethods = []string{"Route"}
	cfg.GlobalStateTypes = []string{p + ".Net"}
	cfg.ShardTables = []FieldRef{{Type: p + ".Net", Field: "routers"}}
	cfg.CrossShardFields = []FieldRef{{Type: p + ".Pkt", Field: "dst"}}
	cfg.ShardConduits = []string{p + ".Net.send"}
	cfg.IndexPreservingFuncs = []string{p + ".Topo.routerOf"}
	runProgramFixture(t, ShardIsolation, cfg, "shardiso")
}
