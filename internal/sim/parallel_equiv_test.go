package sim

import (
	"fmt"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"cbar/internal/routing"
	"cbar/internal/traffic"
)

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
