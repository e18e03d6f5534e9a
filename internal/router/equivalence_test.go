package router_test

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"testing"

	"cbar/internal/router"
	"cbar/internal/routing"
	"cbar/internal/sim"
)

// The engine-equivalence tests, each a table of rows and the arms every
// row must agree across (harness_test.go), and FuzzEngine, which draws
// its rows from the fuzzer's bytes.

// workerArms returns Step at each worker count, and with elide each one
// eliding too.
func workerArms(elide bool, workers ...int) []arm {
	var arms []arm
	for _, w := range workers {
		arms = append(arms, arm{workers: w})
		if elide {
			arms = append(arms, arm{workers: w, elide: true})
		}
	}
	return arms
}

// tiny fills the fields a table's rows share: tiny scale, `cycles`
// injected cycles and an invariant sweep every `sweep`.
func tiny(cycles, sweep int64, rows ...row) []row {
	for i := range rows {
		rows[i].scale, rows[i].cycles, rows[i].sweep = sim.Tiny, cycles, sweep
	}
	return rows
}

func parallelStepRows() []row {
	return tiny(1200, 1,
		row{name: "base-un", algo: routing.Base, w: sim.UN(), load: 0.3},
		row{name: "base-adv1", algo: routing.Base, w: sim.ADV(1), load: 0.3},
		row{name: "base-hotspot", algo: routing.Base, w: sim.HotspotUN(0.2, 4), load: 0.25},
		row{name: "base-bursty", algo: routing.Base, w: sim.UN().WithBurst(40, 120, 0.8), load: 0.2},
		row{name: "pb-un", algo: routing.PB, w: sim.UN(), load: 0.3},
		row{name: "pb-adv1", algo: routing.PB, w: sim.ADV(1), load: 0.25},
		row{name: "ectn-un", algo: routing.ECtN, w: sim.UN(), load: 0.3},
		row{name: "ectn-adv1", algo: routing.ECtN, w: sim.ADV(1), load: 0.25},
		row{name: "ectn-bursty", algo: routing.ECtN, w: sim.UN().WithBurst(40, 120, 0.8), load: 0.2},
		row{name: "olm-adv1", algo: routing.OLM, w: sim.ADV(1), load: 0.3},
		row{name: "olm-hotspot", algo: routing.OLM, w: sim.HotspotUN(0.2, 4), load: 0.25},
		row{name: "val-un", algo: routing.Valiant, w: sim.UN(), load: 0.3},
		row{name: "val-bursty", algo: routing.Valiant, w: sim.UN().WithBurst(40, 120, 0.8), load: 0.2})
}

// parallelArms are the worker-count tables' arms: the 1-worker
// reference, swept only every 250 cycles (the oracle tables sweep the
// sequential stepper), then Step at workers 2–4.
var parallelArms = append([]arm{{workers: 1, sweep: 250}}, workerArms(false, 2, 3, 4)...)

// TestParallelStepEquivalence pins the shard-parallel stepper to the
// sequential one for every mechanism and workload family: the record
// must be identical at workers ∈ {2, 3, 4}, swept after every cycle, to
// the 1-worker run. This is the contract that lets a -workers flag
// change wall-clock time and nothing else.
func TestParallelStepEquivalence(t *testing.T) {
	pin(t, parallelStepRows(), parallelArms, nil)
}

func parallelFaultRows() []row {
	return tiny(1200, 1,
		row{name: "base-un", algo: routing.Base, w: sim.UN(), load: 0.45, faults: faultPlan()},
		row{name: "min-un", algo: routing.Min, w: sim.UN(), load: 0.45, faults: faultPlan()},
		row{name: "pb-un", algo: routing.PB, w: sim.UN(), load: 0.45, faults: faultPlan()},
		row{name: "ectn-adv1", algo: routing.ECtN, w: sim.ADV(1), load: 0.35, faults: faultPlan()})
}

// TestParallelFaultEquivalence pins the fault engine across worker
// counts: with links failing and recovering, a router outage, a random
// cable batch and retransmission all active, deliveries and drops in
// callback order and every fault counter must be identical at workers
// ∈ {2, 3, 4} to the 1-worker run — the contract the sequential-point
// fault application and the ID-sorted victim finalization exist for.
func TestParallelFaultEquivalence(t *testing.T) {
	pin(t, parallelFaultRows(), parallelArms, func(t *testing.T, _ row, a arm, r record) {
		if r.net.NumDropped == 0 || r.net.NumUnroutable == 0 || r.inj.Retried() == 0 {
			t.Fatalf("%v exercised no faults (dropped=%d unroutable=%d retried=%d); the case proves nothing",
				a, r.net.NumDropped, r.net.NumUnroutable, r.inj.Retried())
		}
	})
}

func parallelCongestionRows() []row {
	return tiny(1200, 1,
		row{name: "base-hotspot", algo: routing.Base, w: sim.HotspotUN(0.3, 8), load: 0.7, congestion: true},
		row{name: "base-adv1", algo: routing.Base, w: sim.ADV(1), load: 0.5, congestion: true},
		row{name: "min-hotspot", algo: routing.Min, w: sim.HotspotUN(0.3, 8), load: 0.7, congestion: true},
		row{name: "ectn-bursty-hotspot", algo: routing.ECtN, w: sim.HotspotUN(0.2, 4).WithBurst(40, 120, 0.8),
			load: 0.4, congestion: true})
}

// TestParallelCongestionEquivalence pins the congestion loop — marking,
// notification replay, AIMD throttling, NIC shedding — across worker
// counts: deliveries (ECN marks included) interleaved with OnNotify
// calls, and every congestion counter, must be identical at workers
// ∈ {2, 3, 4} to the 1-worker run. This is what the notification replay
// order (delivery order, at the due cycle's handle barrier) is for.
func TestParallelCongestionEquivalence(t *testing.T) {
	pin(t, parallelCongestionRows(), parallelArms, func(t *testing.T, _ row, a arm, r record) {
		if r.net.NumMarked == 0 || r.net.NumNotified == 0 || r.inj.Throttled() == 0 {
			t.Fatalf("%v exercised no congestion (marked=%d notified=%d throttled=%d); the case proves nothing",
				a, r.net.NumMarked, r.net.NumNotified, r.inj.Throttled())
		}
	})
}

// elisionRows crosses {Base, PB, ECtN} with deep-idle Bernoulli arrivals,
// on-off arrivals with long OFF phases (the calendar heap is the
// horizon), and the fault plan armed over an idle run (events land
// mid-span, retransmission keeps the retry heap in the horizon).
func elisionRows() []row {
	var rows []row
	for _, algo := range []routing.Algo{routing.Base, routing.PB, routing.ECtN} {
		rows = append(rows, tiny(1200, 1,
			row{name: fmt.Sprintf("%v-un-idle", algo), algo: algo, w: sim.UN(), load: 0.002},
			row{name: fmt.Sprintf("%v-bursty-longoff", algo), algo: algo, w: sim.UN().WithBurst(30, 600, 0.3), load: 0.02},
			row{name: fmt.Sprintf("%v-faults-armed", algo), algo: algo, w: sim.UN(), load: 0.005, faults: faultPlan()})...)
	}
	return rows
}

// TestElisionEquivalence: at workers 1–4 an elided run must be
// bit-identical to stepping every cycle while actually jumping a share
// of the clock.
func TestElisionEquivalence(t *testing.T) {
	pin(t, elisionRows(), workerArms(true, 1, 2, 3, 4), func(t *testing.T, rw row, a arm, r record) {
		if !a.elide && r.stepped != rw.cycles {
			t.Fatalf("%v ran %d steps, want %d", a, r.stepped, rw.cycles)
		}
		if a.elide && r.stepped >= rw.cycles {
			t.Fatalf("%v stepped every one of the %d cycles; nothing was elided", a, rw.cycles)
		}
	})
}

// TestFaultsOffIsInert pins the off-mode contract at both levels. A
// zero-valued FaultConfig allocates no engine and no OnDrop hook. A
// scheduled but never-firing plan is dynamically bit-inert: routing's
// fault-aware candidate checks preserve the RNG draw sequence while
// every component is live, so the run is identical to one without a
// plan — which keeps the golden CSVs stable and a far-future plan free.
func TestFaultsOffIsInert(t *testing.T) {
	t.Parallel()
	quiescent := router.FaultConfig{Events: []router.FaultEvent{{Kind: router.LinkDown, Router: 0, Port: 7, Cycle: 1 << 40}}}
	for _, algo := range []routing.Algo{routing.Valiant, routing.PB, routing.Base} {
		t.Run(algo.String(), func(t *testing.T) {
			t.Parallel()
			rw := row{name: algo.String(), algo: algo, w: sim.UN(), load: 0.4, cycles: 800}
			plain := run(t, rw, arm{workers: 1})
			if plain.net.FaultsActive() || plain.net.OnDrop != nil {
				t.Fatal("zero FaultConfig allocated a fault engine or installed an OnDrop hook")
			}
			rw.faults = quiescent
			armed := run(t, rw, arm{workers: 1})
			if !armed.net.FaultsActive() {
				t.Fatal("scheduled plan did not arm the fault engine")
			}
			requireSame(t, "armed plan", plain, armed)
		})
	}
}

func acrossAlgorithmRows() []row {
	rows := []row{
		{name: "base-uniform", algo: routing.Base, w: sim.UN(), load: 0.25, cycles: 2500},
		{name: "base-adversarial", algo: routing.Base, w: sim.ADV(1), load: 0.3, cycles: 2500},
		{name: "ectn-uniform", algo: routing.ECtN, w: sim.UN(), load: 0.2, cycles: 2000},
		{name: "olm-adversarial", algo: routing.OLM, w: sim.ADV(1), load: 0.25, cycles: 2000},
		{name: "pb-uniform", algo: routing.PB, w: sim.UN(), load: 0.25, cycles: 1500},
		{name: "val-uniform", algo: routing.Valiant, w: sim.UN(), load: 0.25, cycles: 1500},
	}
	for i := range rows {
		rows[i].scale, rows[i].checkpoint, rows[i].sweep, rows[i].netSeed, rows[i].injSeed = sim.Small, 1000, 1000, 12345, 777
	}
	return rows
}

// TestStepEquivalenceAcrossAlgorithms runs the paper's workloads with
// the real mechanisms at Small under Step and the StepFullScan oracle
// and requires identical records, counter checkpoints every 1k cycles
// included: the contract that lets the active-set scheduler replace the
// full scan without revalidating any figure.
func TestStepEquivalenceAcrossAlgorithms(t *testing.T) {
	pin(t, acrossAlgorithmRows(), []arm{{oracle: true, workers: 1}, {workers: 1}}, nil)
}

// algStateRow is the Figure 7 scenario, ECtN through a UN→ADV+1 switch
// that shifts demand between groups, swept every cycle: ECtN's audit
// recomputes every group the next combine would skip, so a partial
// mutation that missed its dirty mark fails within the cycle.
func algStateRow() row {
	return row{name: "ECtN", algo: routing.ECtN, scale: sim.Small, w: sim.UN(), then: sim.ADV(1), switchAt: 1200,
		load: 0.28, cycles: 2500, checkpoint: 500, sweep: 1, netSeed: 4242, injSeed: 909}
}

// TestAlgStateEquivalenceTransient pins ECtN's dirty-group combine: Step
// must reproduce the StepFullScan oracle's record across the switch — a
// stale combined array would change routing decisions. (PB keeps no
// state to go stale.)
func TestAlgStateEquivalenceTransient(t *testing.T) {
	t.Parallel()
	var ref record
	t.Run("ECtN-fullscan", func(t *testing.T) {
		if ref = run(t, algStateRow(), arm{oracle: true, workers: 1}); ref.net.NumDelivered == 0 {
			t.Fatal("the oracle delivered nothing; the case proves nothing")
		}
	})
	t.Run("ECtN-activeset", func(t *testing.T) {
		if ref.net == nil {
			t.Fatal("no StepFullScan run to compare against")
		}
		requireSame(t, "Step", ref, run(t, algStateRow(), arm{workers: 1}))
	})
}

// parkingRows offer ADV+1 past saturation and then an injection-free
// tail, where blocked heads outnumber moving ones and parked routers let
// whole spans elide, for every mechanism plain, with congestion
// management and with the stress fault plan. The sweep replays every
// parked head's decision, so it runs often: a missing wake shows within
// a few cycles of the mutation that needed it.
func parkingRows() []row {
	var rows []row
	for _, algo := range routing.All() {
		for _, rw := range []row{{name: "plain"}, {name: "congestion", congestion: true},
			{name: "faults", congestion: true, faults: stressFaults(1000)}} {
			rw.name, rw.algo, rw.w, rw.load = fmt.Sprintf("%v-%s", algo, rw.name), algo, sim.ADV(1), 0.6
			rw.cycles, rw.tail, rw.sweep = 1000, 300, 7
			rows = append(rows, rw)
		}
	}
	return rows
}

// TestParkingEquivalence pins blocked-router parking to the StepFullScan
// oracle, which visits every router every cycle and so needs no wake:
// the record must be the same at workers {1, 2, 4} with elision on and
// off. A wake missing from any mutation point, or a Route that breaks
// the contract in algorithm.go, diverges here or fails the parked-head
// replay in CheckInvariants.
func TestParkingEquivalence(t *testing.T) {
	arms := append([]arm{{oracle: true, workers: 1}}, workerArms(true, 1, 2, 4)...)
	pin(t, parkingRows(), arms, func(t *testing.T, rw row, a arm, r record) {
		if len(rw.faults.Events) > 0 && r.net.NumDropped == 0 {
			t.Fatalf("%v dropped nothing; the fault plan did not bite", a)
		}
	})
}

// What FuzzEngine's bytes choose from: the workloads, and the arm that
// must reproduce the oracle.
var (
	fuzzWorkloads = []sim.Workload{sim.UN(), sim.ADV(1), sim.HotspotUN(0.2, 4), sim.UN().WithBurst(40, 120, 0.8)}
	fuzzArms      = workerArms(true, 1, 2, 4)
)

// fuzzRow decodes one input into a tiny row — a mechanism, a workload,
// a load in thousandths, congestion (flags bit 0), the stress fault plan
// (bit 1), a seed — and the arm the other bits select.
func fuzzRow(mech, work uint8, load uint16, flags uint8, seed uint64) (row, arm) {
	rw := row{name: "fuzz", algo: routing.All()[int(mech)%len(routing.All())], w: fuzzWorkloads[int(work)%len(fuzzWorkloads)],
		load: float64(load%1000+1) / 1000, congestion: flags&1 != 0,
		cycles: 300, tail: 100, checkpoint: 100, sweep: 7, netSeed: seed, injSeed: seed + 1}
	if peak := rw.w.Source.PeakLoad; peak > 0 {
		rw.load = min(rw.load, peak) // an on-off source offers no more than its peak
	}
	if flags&2 != 0 {
		rw.faults = stressFaults(rw.cycles)
	}
	return rw, fuzzArms[int(flags>>2)%len(fuzzArms)]
}

// FuzzEngine steps each input's row with the StepFullScan oracle and with
// one arm of workers {1, 2, 4} × elision {off, on}, and requires the two
// records to agree. The seed corpus is the rows of the tables above,
// each with the next arm in turn.
func FuzzEngine(f *testing.F) {
	for i, rw := range slices.Concat(parallelStepRows(), parallelFaultRows(), parallelCongestionRows(), elisionRows(),
		acrossAlgorithmRows(), []row{algStateRow()}, parkingRows()) {
		work := slices.Index([]sim.WorkloadKind{sim.Uniform, sim.Adversarial, sim.Hotspot}, rw.w.Kind)
		if rw.w.Source.Bursty {
			work = 3
		}
		flags := uint8(i%len(fuzzArms)) << 2
		if rw.congestion {
			flags |= 1
		}
		if len(rw.faults.Events) > 0 {
			flags |= 2
		}
		f.Add(uint8(slices.Index(routing.All(), rw.algo)), uint8(work), uint16(math.Round(rw.load*1000))-1, flags,
			cmp.Or(rw.netSeed, 2025))
	}
	f.Fuzz(func(t *testing.T, mech, work uint8, load uint16, flags uint8, seed uint64) {
		t.Parallel() // seed inputs under go test; no effect while fuzzing
		rw, a := fuzzRow(mech, work, load, flags, seed)
		requireSame(t, a.String(), run(t, rw, arm{oracle: true, workers: 1}), run(t, rw, a))
	})
}
