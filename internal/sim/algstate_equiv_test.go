package sim

import (
	"testing"

	"cbar/internal/router"
	"cbar/internal/routing"
	"cbar/internal/traffic"
)

// algStateRun drives one network through a UN→ADV+1 transient — the
// Figure 7 scenario, where congestion state flips network-wide — in the
// requested fabric step mode and with the requested ECtN exchange
// (reference combine-every-group vs dirty-group flags), recording
// the per-packet latency histogram plus counter checkpoints and checking
// invariants (which include the StateChecker audits) every 500 cycles.
func algStateRun(t *testing.T, switchAt, cycles int64, load float64, fullScan, refScan bool) (map[int64]uint64, []uint64, *router.Network) {
	t.Helper()
	c := NewConfig(Small.Params(), routing.ECtN)
	c.Opts.ReferenceScan = refScan
	net, err := BuildNetwork(c, 4242)
	if err != nil {
		t.Fatal(err)
	}
	net.FullScan = fullScan
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
		net.Step()
		if (cyc+1)%500 == 0 {
			if err := net.CheckInvariants(); err != nil {
				t.Fatalf("fullScan=%v refScan=%v cycle %d: %v", fullScan, refScan, cyc, err)
			}
			checkpoints = append(checkpoints, net.NumGenerated, net.NumDelivered, uint64(net.InFlight))
		}
	}
	return hist, checkpoints, net
}

// TestAlgStateEquivalenceTransient pins ECtN's dirty-group combines to
// the retained combine-every-group reference across a UN→ADV+1 traffic
// switch, under both the active-set and the full-scan fabric loops. The
// switch shifts demand between groups, so a missed dirty mark would
// leave a stale combined array, change routing decisions and diverge the
// delivery trace. (PB needs no such pin: it keeps no state to go stale.)
func TestAlgStateEquivalenceTransient(t *testing.T) {
	const (
		switchAt = 1200
		cycles   = 2500
		load     = 0.28
	)
	for _, fullScan := range []bool{false, true} {
		name := "ECtN-activeset"
		if fullScan {
			name = "ECtN-fullscan"
		}
		t.Run(name, func(t *testing.T) {
			refHist, refCk, nRef := algStateRun(t, switchAt, cycles, load, fullScan, true)
			evtHist, evtCk, nEvt := algStateRun(t, switchAt, cycles, load, fullScan, false)

			if nRef.NumGenerated != nEvt.NumGenerated || nRef.NumBlocked != nEvt.NumBlocked {
				t.Fatalf("generation diverged: reference %d/%d vs event-driven %d/%d",
					nRef.NumGenerated, nRef.NumBlocked, nEvt.NumGenerated, nEvt.NumBlocked)
			}
			if nRef.NumDelivered != nEvt.NumDelivered || nRef.DeliveredPhits != nEvt.DeliveredPhits {
				t.Fatalf("delivery diverged: reference %d (%d phits) vs event-driven %d (%d phits)",
					nRef.NumDelivered, nRef.DeliveredPhits, nEvt.NumDelivered, nEvt.DeliveredPhits)
			}
			if nRef.NumDelivered == 0 {
				t.Fatal("no traffic delivered")
			}
			for i := range refCk {
				if refCk[i] != evtCk[i] {
					t.Fatalf("checkpoint %d diverged: reference %d vs event-driven %d (checkpoints are [gen, delivered, inflight] per 500 cycles)",
						i, refCk[i], evtCk[i])
				}
			}
			if len(refHist) != len(evtHist) {
				t.Fatalf("latency histograms differ in support: %d vs %d bins", len(refHist), len(evtHist))
			}
			//lint:ordered per-bin histogram equality; order cannot affect outcomes
			for lat, cnt := range refHist {
				if evtHist[lat] != cnt {
					t.Fatalf("latency %d: reference count %d vs event-driven %d", lat, cnt, evtHist[lat])
				}
			}
		})
	}
}
