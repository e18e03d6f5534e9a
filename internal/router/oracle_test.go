package router_test

import (
	"testing"

	"cbar/internal/router"
	"cbar/internal/routing"
	"cbar/internal/sim"
	"cbar/internal/traffic"
)

// The equivalence tests that pin Step against the StepFullScan oracle
// (export_test.go) with the real routing mechanisms and workloads. They
// build their systems through the exported API of sim, traffic and
// routing, which is why they live in the external test package.

// equivRun drives one network for `cycles` cycles with the given
// workload at `load`, stepped by Step or by the StepFullScan oracle,
// recording a per-packet latency histogram and checking invariants plus
// counter checkpoints every 1k cycles.
func equivRun(t *testing.T, c sim.Config, w sim.Workload, load float64, cycles int64, fullScan bool) (map[int64]uint64, []uint64, *router.Network) {
	t.Helper()
	net, err := sim.BuildNetwork(c, 12345)
	if err != nil {
		t.Fatal(err)
	}
	step := stepFunc(net, fullScan)
	pat, err := w.Pattern(net.Topo)
	if err != nil {
		t.Fatal(err)
	}
	inj, err := traffic.NewInjector(net, traffic.Constant(pat), load, 777)
	if err != nil {
		t.Fatal(err)
	}
	hist := make(map[int64]uint64)
	net.OnDeliver = func(p *router.Packet, now int64) {
		hist[now-p.GenTime]++
	}
	var checkpoints []uint64
	for cyc := int64(0); cyc < cycles; cyc++ {
		inj.Cycle()
		step()
		if (cyc+1)%1000 == 0 {
			if err := net.CheckInvariants(); err != nil {
				t.Fatalf("fullScan=%v cycle %d: %v", fullScan, cyc, err)
			}
			checkpoints = append(checkpoints, net.NumGenerated, net.NumDelivered, uint64(net.InFlight))
		}
	}
	return hist, checkpoints, net
}

// stepFunc returns net's Step, or with fullScan its StepFullScan oracle.
func stepFunc(net *router.Network, fullScan bool) func() {
	if fullScan {
		return net.StepFullScan
	}
	return net.Step
}

// requireSameRun fails unless the Step run reproduced the StepFullScan
// run: generation and blocking counts, deliveries, the per-packet
// latency histogram and every counter checkpoint.
func requireSameRun(t *testing.T, fullHist, actHist map[int64]uint64, fullCk, actCk []uint64, nFull, nAct *router.Network) {
	t.Helper()
	if nFull.NumGenerated != nAct.NumGenerated || nFull.NumBlocked != nAct.NumBlocked {
		t.Fatalf("generation diverged: full %d/%d vs active %d/%d",
			nFull.NumGenerated, nFull.NumBlocked, nAct.NumGenerated, nAct.NumBlocked)
	}
	if nFull.NumDelivered != nAct.NumDelivered || nFull.DeliveredPhits != nAct.DeliveredPhits {
		t.Fatalf("delivery diverged: full %d (%d phits) vs active %d (%d phits)",
			nFull.NumDelivered, nFull.DeliveredPhits, nAct.NumDelivered, nAct.DeliveredPhits)
	}
	if nFull.NumDelivered == 0 {
		t.Fatal("no traffic delivered")
	}
	if len(fullCk) != len(actCk) {
		t.Fatalf("checkpoint counts differ: %d vs %d", len(fullCk), len(actCk))
	}
	for i := range fullCk {
		if fullCk[i] != actCk[i] {
			t.Fatalf("checkpoint %d diverged: full %d vs active %d (checkpoints are [gen, delivered, inflight] per window)",
				i, fullCk[i], actCk[i])
		}
	}
	if len(fullHist) != len(actHist) {
		t.Fatalf("latency histograms differ in support: %d vs %d bins", len(fullHist), len(actHist))
	}
	//lint:ordered per-bin histogram equality; order cannot affect outcomes
	for lat, cnt := range fullHist {
		if actHist[lat] != cnt {
			t.Fatalf("latency %d: full count %d vs active %d", lat, cnt, actHist[lat])
		}
	}
}

// TestStepEquivalenceAcrossAlgorithms runs the paper's workloads under
// real routing mechanisms under Step and StepFullScan and requires identical
// results: same generation and blocking counts, same deliveries, the
// same per-packet latency histogram, and matching counter checkpoints at
// every 1k cycles. This is the contract that lets the active-set
// scheduler replace the full scan without revalidating any figure.
func TestStepEquivalenceAcrossAlgorithms(t *testing.T) {
	cases := []struct {
		name   string
		algo   routing.Algo
		w      sim.Workload
		load   float64
		cycles int64
	}{
		{"base-uniform", routing.Base, sim.UN(), 0.25, 2500},
		{"base-adversarial", routing.Base, sim.ADV(1), 0.3, 2500},
		{"ectn-uniform", routing.ECtN, sim.UN(), 0.2, 2000},
		{"olm-adversarial", routing.OLM, sim.ADV(1), 0.25, 2000},
		{"pb-uniform", routing.PB, sim.UN(), 0.25, 1500},
		{"val-uniform", routing.Valiant, sim.UN(), 0.25, 1500},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := sim.NewConfig(sim.Small.Params(), tc.algo)
			fullHist, fullCk, nFull := equivRun(t, c, tc.w, tc.load, tc.cycles, true)
			actHist, actCk, nAct := equivRun(t, c, tc.w, tc.load, tc.cycles, false)
			requireSameRun(t, fullHist, actHist, fullCk, actCk, nFull, nAct)
		})
	}
}

// algStateRun drives one ECtN network through a UN→ADV+1 transient —
// the Figure 7 scenario, where congestion state flips network-wide —
// stepped by Step or by the StepFullScan oracle, recording the
// per-packet latency histogram plus counter checkpoints every 500
// cycles. It runs CheckInvariants after every cycle: ECtN's audit there
// recomputes every group the next combine would skip, so a partial
// mutation that missed its dirty mark fails within the cycle.
func algStateRun(t *testing.T, switchAt, cycles int64, load float64, fullScan bool) (map[int64]uint64, []uint64, *router.Network) {
	t.Helper()
	net, err := sim.BuildNetwork(sim.NewConfig(sim.Small.Params(), routing.ECtN), 4242)
	if err != nil {
		t.Fatal(err)
	}
	step := stepFunc(net, fullScan)
	patUN, err := sim.UN().Pattern(net.Topo)
	if err != nil {
		t.Fatal(err)
	}
	patADV, err := sim.ADV(1).Pattern(net.Topo)
	if err != nil {
		t.Fatal(err)
	}
	sched, err := traffic.NewSchedule(
		traffic.Phase{FromCycle: 0, Pattern: patUN},
		traffic.Phase{FromCycle: switchAt, Pattern: patADV},
	)
	if err != nil {
		t.Fatal(err)
	}
	inj, err := traffic.NewInjector(net, sched, load, 909)
	if err != nil {
		t.Fatal(err)
	}
	hist := make(map[int64]uint64)
	net.OnDeliver = func(p *router.Packet, now int64) {
		hist[now-p.GenTime]++
	}
	var checkpoints []uint64
	for cyc := int64(0); cyc < cycles; cyc++ {
		inj.Cycle()
		step()
		if err := net.CheckInvariants(); err != nil {
			t.Fatalf("fullScan=%v cycle %d: %v", fullScan, cyc, err)
		}
		if (cyc+1)%500 == 0 {
			checkpoints = append(checkpoints, net.NumGenerated, net.NumDelivered, uint64(net.InFlight))
		}
	}
	return hist, checkpoints, net
}

// TestAlgStateEquivalenceTransient pins ECtN's dirty-group combine
// across a UN→ADV+1 traffic switch, which shifts demand between groups:
// each run is audited every cycle (algStateRun), and Step must reproduce
// the StepFullScan oracle's latency histogram and checkpoints exactly —
// a stale combined array would change routing decisions and diverge
// them. (PB needs no such pin: it keeps no state to go stale.)
func TestAlgStateEquivalenceTransient(t *testing.T) {
	const (
		switchAt = 1200
		cycles   = 2500
		load     = 0.28
	)
	var (
		fullHist map[int64]uint64
		fullCk   []uint64
		nFull    *router.Network
	)
	t.Run("ECtN-fullscan", func(t *testing.T) {
		fullHist, fullCk, nFull = algStateRun(t, switchAt, cycles, load, true)
	})
	t.Run("ECtN-activeset", func(t *testing.T) {
		if nFull == nil {
			t.Fatal("no StepFullScan run to compare against")
		}
		actHist, actCk, nAct := algStateRun(t, switchAt, cycles, load, false)
		requireSameRun(t, fullHist, actHist, fullCk, actCk, nFull, nAct)
	})
}
