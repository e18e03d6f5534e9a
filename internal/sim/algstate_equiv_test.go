package sim

import (
	"testing"

	"cbar/internal/router"
	"cbar/internal/routing"
	"cbar/internal/traffic"
)

// algStateRun drives one ECtN network through a UN→ADV+1 transient —
// the Figure 7 scenario, where congestion state flips network-wide —
// stepped by Step or by the StepFullScan oracle, recording the
// per-packet latency histogram plus counter checkpoints every 500
// cycles. It runs CheckInvariants after every cycle: ECtN's audit there
// recomputes every group the next combine would skip, so a partial
// mutation that missed its dirty mark fails within the cycle.
func algStateRun(t *testing.T, switchAt, cycles int64, load float64, fullScan bool) (map[int64]uint64, []uint64, *router.Network) {
	t.Helper()
	net, err := BuildNetwork(NewConfig(Small.Params(), routing.ECtN), 4242)
	if err != nil {
		t.Fatal(err)
	}
	step := stepFunc(net, fullScan)
	patUN, err := UN().Pattern(net.Topo)
	if err != nil {
		t.Fatal(err)
	}
	patADV, err := ADV(1).Pattern(net.Topo)
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
