package sim

import (
	"fmt"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"cbar/internal/router"
	"cbar/internal/routing"
	"cbar/internal/traffic"
)

// parallelRun drives one network for `cycles` cycles at the given worker
// count, recording the exact delivery trace (cycle, packet identity,
// path statistics, in callback order) and the per-packet latency
// histogram, and checking the full invariant sweep — including the
// algorithm StateChecker audits — after every parallel cycle.
func parallelRun(t *testing.T, c Config, w Workload, load float64, cycles int64, workers int) ([]string, map[int64]uint64, *router.Network) {
	t.Helper()
	c.Router.Workers = workers
	net, inj := testPoint(t, c, w, load)
	if got := net.Workers(); got != workers {
		t.Fatalf("built %d workers, want %d", got, workers)
	}
	var trace []string
	hist := make(map[int64]uint64)
	net.OnDeliver = func(p *router.Packet, now int64) {
		trace = append(trace, fmt.Sprintf("%d #%d %d->%d hops=%d mis=%v/%d gen=%d",
			now, p.ID, p.Src, p.Dst, p.TotalHops, p.GlobalMisroute, p.LocalMisroutes, p.GenTime))
		hist[now-p.GenTime]++
	}
	// Invariants every cycle under parallel stepping (the satellite
	// contract: the incremental state must recompute and agree after
	// every parallel cycle); spot checks suffice for the sequential
	// reference, which the sequential equivalence suite already audits.
	checkEvery := int64(1)
	if workers == 1 {
		checkEvery = 250
	}
	for cyc := int64(0); cyc < cycles; cyc++ {
		inj.Cycle()
		net.Step()
		if (cyc+1)%checkEvery == 0 {
			if err := net.CheckInvariants(); err != nil {
				t.Fatalf("workers=%d cycle %d: %v", workers, cyc, err)
			}
		}
	}
	return trace, hist, net
}

// TestParallelStepEquivalence pins the shard-parallel stepper
// bit-for-bit to the sequential active-set stepper: for every mechanism
// family and workload family, the exact delivery trace (including the
// OnDeliver callback order), the latency histogram and the aggregate
// counters must be identical at workers ∈ {2, 3, 4} to the 1-worker
// run. This is the contract that lets a -workers flag change wall-clock
// time and nothing else.
func TestParallelStepEquivalence(t *testing.T) {
	cases := []struct {
		name string
		algo routing.Algo
		w    Workload
		load float64
	}{
		{"base-un", routing.Base, UN(), 0.3},
		{"base-adv1", routing.Base, ADV(1), 0.3},
		{"base-hotspot", routing.Base, HotspotUN(0.2, 4), 0.25},
		{"base-bursty", routing.Base, UN().WithBurst(40, 120, 0.8), 0.2},
		{"pb-un", routing.PB, UN(), 0.3},
		{"pb-adv1", routing.PB, ADV(1), 0.25},
		{"ectn-un", routing.ECtN, UN(), 0.3},
		{"ectn-adv1", routing.ECtN, ADV(1), 0.25},
		{"ectn-bursty", routing.ECtN, UN().WithBurst(40, 120, 0.8), 0.2},
		{"olm-adv1", routing.OLM, ADV(1), 0.3},
		{"olm-hotspot", routing.OLM, HotspotUN(0.2, 4), 0.25},
		{"val-un", routing.Valiant, UN(), 0.3},
		{"val-bursty", routing.Valiant, UN().WithBurst(40, 120, 0.8), 0.2},
	}
	const cycles = 1200
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := NewConfig(Tiny.Params(), tc.algo)
			refTrace, refHist, refNet := parallelRun(t, c, tc.w, tc.load, cycles, 1)
			if len(refTrace) == 0 {
				t.Fatal("reference run delivered nothing; the case proves nothing")
			}
			for _, workers := range []int{2, 3, 4} {
				trace, hist, net := parallelRun(t, c, tc.w, tc.load, cycles, workers)
				if net.NumGenerated != refNet.NumGenerated || net.NumBlocked != refNet.NumBlocked {
					t.Fatalf("workers=%d generation diverged: %d/%d vs %d/%d",
						workers, net.NumGenerated, net.NumBlocked, refNet.NumGenerated, refNet.NumBlocked)
				}
				if net.NumDelivered != refNet.NumDelivered || net.DeliveredPhits != refNet.DeliveredPhits ||
					net.InFlight != refNet.InFlight {
					t.Fatalf("workers=%d delivery diverged: %d (%d phits, %d in flight) vs %d (%d phits, %d in flight)",
						workers, net.NumDelivered, net.DeliveredPhits, net.InFlight,
						refNet.NumDelivered, refNet.DeliveredPhits, refNet.InFlight)
				}
				if len(trace) != len(refTrace) {
					t.Fatalf("workers=%d trace length %d vs %d", workers, len(trace), len(refTrace))
				}
				for i := range trace {
					if trace[i] != refTrace[i] {
						t.Fatalf("workers=%d trace diverged at delivery %d:\n  got  %s\n  want %s",
							workers, i, trace[i], refTrace[i])
					}
				}
				if len(hist) != len(refHist) {
					t.Fatalf("workers=%d histogram has %d latencies vs %d", workers, len(hist), len(refHist))
				}
				//lint:ordered per-bin histogram equality; order cannot affect outcomes
				for lat, n := range refHist {
					if hist[lat] != n {
						t.Fatalf("workers=%d latency %d count %d vs %d", workers, lat, hist[lat], n)
					}
				}
			}
		})
	}
}

// TestParallelDrainForwardProgress proves forward progress under
// parallel stepping: a loaded 4-worker network must fully drain once
// injection stops, with the invariant sweep passing along the way.
func TestParallelDrainForwardProgress(t *testing.T) {
	c := NewConfig(Tiny.Params(), routing.ECtN)
	c.Router.Workers = 4
	net, err := BuildNetwork(c, 7)
	if err != nil {
		t.Fatal(err)
	}
	pat, err := ADV(1).Pattern(net.Topo)
	if err != nil {
		t.Fatal(err)
	}
	inj, err := traffic.NewInjector(net, traffic.Constant(pat), 0.5, 13)
	if err != nil {
		t.Fatal(err)
	}
	for cyc := 0; cyc < 600; cyc++ {
		inj.Cycle()
		net.Step()
	}
	if net.InFlight == 0 {
		t.Fatal("nothing in flight after the loaded phase; the drain proves nothing")
	}
	if !net.Drain(1 << 16) {
		t.Fatalf("network did not drain at 4 workers: %d packets stuck", net.InFlight)
	}
	if err := net.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if net.NumDelivered != net.NumGenerated {
		t.Fatalf("drained but delivered %d of %d", net.NumDelivered, net.NumGenerated)
	}
}

// TestParallelWorkersClamped pins the Build-time normalization: worker
// counts beyond the group count clamp to it, and zero/negative-free
// configs stay sequential.
func TestParallelWorkersClamped(t *testing.T) {
	c := NewConfig(Tiny.Params(), routing.Base) // 9 groups
	c.Router.Workers = 64
	net, err := BuildNetwork(c, 1)
	if err != nil {
		t.Fatal(err)
	}
	if got := net.Workers(); got != net.Topo.Groups {
		t.Fatalf("workers %d, want clamp to %d groups", got, net.Topo.Groups)
	}
	c.Router.Workers = 0
	net, err = BuildNetwork(c, 1)
	if err != nil {
		t.Fatal(err)
	}
	if got := net.Workers(); got != 1 {
		t.Fatalf("workers %d, want 1 for zero config", got)
	}
}

// TestParallelRejectsUnorderedHandoff pins the Build-time guard: shard
// parallelism requires cross-shard packet handoffs to be barrier-ordered
// (pipeline + global link latency must exceed the packet serialization
// time), otherwise two shards could touch one packet in the same cycle.
func TestParallelRejectsUnorderedHandoff(t *testing.T) {
	// Pipeline + global latency == packet size: the boundary Validate
	// accepts (tail-leave and head-arrive may share a cycle, which the
	// sequential bucket order resolves tail-first) but the shard
	// stepper must reject (two shards would touch the packet in the
	// same cycle, with no order between them).
	c := NewConfig(Tiny.Params(), routing.Base)
	c.Router.Workers = 2
	c.Router.PipelineLatency = 5
	c.Router.LatencyGlobal = 3
	c.Router.PacketSize = 8
	if _, err := BuildNetwork(c, 1); err == nil {
		t.Fatal("Build accepted workers=2 with PipelineLatency+LatencyGlobal <= PacketSize")
	} else if !strings.Contains(err.Error(), "barrier-ordered") {
		t.Fatalf("unexpected error: %v", err)
	}
	// The same configuration is legal sequentially.
	c.Router.Workers = 1
	if _, err := BuildNetwork(c, 1); err != nil {
		t.Fatalf("sequential build rejected: %v", err)
	}
	// Strictly below the bound the packet would sit in two input queues
	// at once and the per-queue bookkeeping corrupts (contention-counter
	// underflow) — rejected for every worker count since the fix.
	c.Router.LatencyGlobal = 2
	if _, err := BuildNetwork(c, 1); err == nil {
		t.Fatal("Validate accepted PipelineLatency+LatencyGlobal < PacketSize")
	}
}

// TestAutoWorkersSkipUnshardableConfig: a config Build rejects for
// workers > 1 (handoffs not barrier-ordered) was a perfectly valid
// sequential sweep before sharding existed, and must stay one under the
// automatic worker split on any core count — auto mode falls back to
// sequential instead of surfacing the Build error. An explicit workers
// request still fails loudly: the caller asked for the impossible.
func TestAutoWorkersSkipUnshardableConfig(t *testing.T) {
	prev := runtime.GOMAXPROCS(8) // make the auto split want perRun > 1
	defer runtime.GOMAXPROCS(prev)
	c := NewConfig(Tiny.Params(), routing.Base)
	c.Router.PacketSize = 15
	c.Router.PipelineLatency = 5
	c.Router.LatencyGlobal = 10 // 5+10 == 15: sequentially valid, unshardable
	if autoShardable(c.Router) {
		t.Fatal("test config unexpectedly shardable")
	}
	rs, err := SweepSteadyBudget(c, UN(), []float64{0.1}, Budget{Warmup: 200, Measure: 200, Seeds: 1})
	if err != nil {
		t.Fatalf("auto worker split broke an unshardable-but-valid config: %v", err)
	}
	if rs[0].Delivered == 0 {
		t.Fatal("sequential fallback delivered nothing")
	}
	c.Router.Workers = 2
	if _, err := SweepSteadyBudget(c, UN(), []float64{0.1}, Budget{Warmup: 200, Measure: 200, Seeds: 1}); err == nil {
		t.Fatal("explicit workers=2 on an unshardable config surfaced no error")
	}
}

// TestForEachTaskPanicRecovered is the regression test for the sweep
// pool's panic handling: a deliberately panicking task must neither kill
// the process nor wedge sibling workers — it surfaces as an error
// carrying the panic value, and tasks not yet started are cancelled.
func TestForEachTaskPanicRecovered(t *testing.T) {
	var started atomic.Int64
	err := forEachTaskN(1000, 4, func(i int) error {
		started.Add(1)
		if i == 3 {
			panic(fmt.Sprintf("deliberate panic in task %d", i))
		}
		// Siblings must not race through the whole grid before the
		// panicking worker's recover path sets the cancel flag — each
		// real seed run takes far longer than a recover does.
		time.Sleep(200 * time.Microsecond)
		return nil
	})
	if err == nil {
		t.Fatal("panicking task surfaced no error")
	}
	if !strings.Contains(err.Error(), "deliberate panic in task 3") {
		t.Fatalf("error lost the panic value: %v", err)
	}
	if !strings.Contains(err.Error(), "parallel_equiv_test.go") {
		t.Fatalf("error lost the panic stack: %v", err)
	}
	if n := started.Load(); n >= 1000 {
		t.Fatalf("panic did not cancel remaining tasks: %d started", n)
	}
}

// TestSweepSteadySurfacesTaskFailure pins the companion contract: a
// seed run that fails inside the worker pool surfaces its error from
// SweepSteadyBudget instead of being swallowed (the panic path rides the
// same ferr mechanism, exercised by TestForEachTaskPanicRecovered).
func TestSweepSteadySurfacesTaskFailure(t *testing.T) {
	c := NewConfig(Tiny.Params(), routing.Base)
	w := Workload{Kind: WorkloadKind(977)} // resolves to an error inside the task
	if _, err := SweepSteadyBudget(c, w, []float64{0.1}, Budget{Warmup: 10, Measure: 10, Seeds: 2}); err == nil {
		t.Fatal("failing seed run produced no error")
	}
}
