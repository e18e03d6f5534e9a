package lint

import "testing"

func TestSequentialPointDirect(t *testing.T) {
	const p = "fixture/seqpoint_direct"
	cfg := fixtureConfig()
	cfg.BarrierOnly = map[string][]string{
		p + ".Net.replay": {p + ".Net.Step"},
	}
	runFixture(t, SequentialPoint, cfg, "seqpoint_direct")
}

func TestSequentialPointReachability(t *testing.T) {
	const p = "fixture/seqpoint_reach"
	cfg := fixtureConfig()
	cfg.BarrierOnly = map[string][]string{
		p + ".Net.replay": {p + ".Net.Step"},
	}
	cfg.DeterministicPkgs = []string{p}
	cfg.ParallelRoots = []string{p + ".Net.worker"}
	cfg.ParallelRootMethods = []string{"Route"}
	runProgramFixture(t, SequentialReach, cfg, "seqpoint_reach")
}
