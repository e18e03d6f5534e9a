// Command bench runs the simulator's step-benchmark suite plus a
// fixed-cycle end-to-end run and writes the results as JSON, so the perf
// trajectory of the Step hot path is tracked release over release:
//
//	go run ./cmd/bench -o BENCH_step.json
//
// The step benchmarks measure one whole-network cycle (injection included)
// at several scales and loads; cycles/sec is the headline simulator speed
// at that operating point. The burst benchmark measures a full
// burst-then-drain episode rather than a single cycle.
//
// -compare turns the binary into a CI regression gate: it reruns the
// step suite and diffs it against a committed baseline report,
//
//	go run ./cmd/bench -compare BENCH_step.json -ns-warn-only
//
// failing on allocs/op growth (hardware-independent, so always a hard
// failure) and on >2.5x ns/op regressions (downgradable to GitHub
// warning annotations with -ns-warn-only for noisy shared runners).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"
	"testing"
	"time"

	"cbar/internal/rng"
	"cbar/internal/router"
	"cbar/internal/routing"
	"cbar/internal/sim"
	"cbar/internal/traffic"
)

// BenchResult is one benchmark's measurement.
type BenchResult struct {
	Name        string  `json:"name"`
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	// CyclesPerSec is reported for benchmarks whose op is one simulated
	// cycle (zero for composite ops like burst-drain).
	CyclesPerSec float64 `json:"cycles_per_sec,omitempty"`
	// CyclesPerOp is the number of simulated cycles one op covers (1 for
	// step benchmarks; measured for burst-drain).
	CyclesPerOp float64 `json:"cycles_per_op,omitempty"`
	// Workers is the shard worker count the network was stepped with
	// (the workers dimension of the record; 1 = sequential stepping).
	Workers int `json:"workers"`
}

// EndToEnd is a fixed-cycle whole-simulation measurement.
type EndToEnd struct {
	Scale        string  `json:"scale"`
	Algo         string  `json:"algo"`
	Load         float64 `json:"load"`
	Cycles       int64   `json:"cycles"`
	WallMs       float64 `json:"wall_ms"`
	CyclesPerSec float64 `json:"cycles_per_sec"`
	Delivered    uint64  `json:"delivered"`
	AvgPhitsLoad float64 `json:"accepted_phits_per_node_cycle"`
}

// Report is the file schema of BENCH_step.json.
type Report struct {
	GoVersion  string `json:"go_version"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	// Benchtime is the effective per-benchmark measurement time the
	// suite ran under ("1s" unless -benchtime overrode it). Compare runs
	// hard-fail on a benchtime mismatch: a shorter window inflates
	// allocs/op (one-off amortized allocations stop averaging out), so a
	// baseline and a gate run at different benchtimes are not comparable.
	Benchtime  string        `json:"benchtime,omitempty"`
	Benchmarks []BenchResult `json:"benchmarks"`
	EndToEnd   EndToEnd      `json:"end_to_end"`
}

// effectiveBenchtime normalizes a -benchtime flag value to the recorded
// form: the testing package's default 1s when unset.
func effectiveBenchtime(flagValue string) string {
	if flagValue == "" {
		return "1s"
	}
	return flagValue
}

// spec abbreviates the shared harness's operating-point struct.
type spec = sim.StepBenchSpec

// stepCycles is the literal per-cycle body every Step row and the
// end-to-end run time: n injected cycles, stepped one by one. The rows
// measure Step itself, so unlike every measurement in package sim this
// loop must not elide quiet cycles.
func stepCycles(net *router.Network, inj *traffic.Injector, n int) {
	for i := 0; i < n; i++ {
		inj.Cycle()
		net.Step()
	}
}

// stepBench returns a benchmark function measuring one injected cycle
// at the operating point, built and warmed by the same shared harness
// as the in-tree BenchmarkStep* suite (see sim.StepBenchSpec for the
// knobs: workload, shard workers, reference scans, quiescent faults).
// Reaching a Saturated point's stalled steady state takes thousands of
// cycles, so its warmed network is built on the first call and kept
// across testing.Benchmark's calls with growing b.N: each just steps it
// further.
func stepBench(sp spec) func(b *testing.B) {
	var (
		net *router.Network
		inj *traffic.Injector
	)
	return func(b *testing.B) {
		if net == nil || !sp.Saturated {
			var err error
			if net, inj, err = sim.NewStepBench(sp); err != nil {
				b.Fatal(err)
			}
		}
		gen0 := net.NumGenerated
		b.ReportAllocs()
		b.ResetTimer()
		stepCycles(net, inj, b.N)
		// A long measured run generating nothing means the injector is
		// broken and the numbers would record an empty network.
		if b.N > 1000 && net.NumGenerated == gen0 {
			b.Fatal("no traffic generated during measurement")
		}
	}
}

// stepBenchElideIdle measures the quiet-cycle elision path: one op
// advances sim.ElideIdleSpan cycles of a deep-idle network through
// sim.Advance, which jumps the clock between events instead of
// stepping every cycle. The entry's cycles/sec is span-normalized, so
// it compares directly against the per-cycle Idle entries — the
// acceptance bar of the elision change is >= 10x their cycles/sec.
func stepBenchElideIdle(s sim.Scale) func(b *testing.B) {
	return func(b *testing.B) {
		net, inj, err := sim.NewStepBench(spec{Scale: s, Algo: routing.Base, Load: sim.ElideIdleLoad})
		if err != nil {
			b.Fatal(err)
		}
		if err := sim.ElideIdleWarm(net, inj); err != nil {
			b.Fatal(err)
		}
		gen0 := net.NumGenerated
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			sim.Advance(net, inj, sim.ElideIdleSpan)
		}
		if b.N > 100 && net.NumGenerated == gen0 {
			b.Fatal("no traffic generated during measurement")
		}
	}
}

// burstDrainBench measures a burst followed by a full drain, reporting
// the drained cycles per op via the returned counter.
func burstDrainBench(cycles *float64) func(b *testing.B) {
	return func(b *testing.B) {
		c := sim.NewConfig(sim.Small.Params(), routing.Base)
		net, err := sim.BuildNetwork(c, 1)
		if err != nil {
			b.Fatal(err)
		}
		r := rng.New(3, 9)
		start := net.Now()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := sim.BurstDrainStep(net, r); err != nil {
				b.Fatal(err)
			}
		}
		b.StopTimer()
		*cycles = float64(net.Now()-start) / float64(b.N)
	}
}

// nsRegressionFactor is the ns/op ratio over baseline past which a step
// benchmark counts as a perf regression. It is deliberately loose (the
// baseline may come from different hardware than the gate run); the
// allocs/op comparison is the tight one, since allocation counts are
// hardware-independent.
const nsRegressionFactor = 2.5

// allocAllowance returns the allocs/op ceiling tolerated over a
// baseline: exact-plus-one for the (deterministic) sequential
// benchmarks' small counts, plus 10% headroom for the larger
// scheduling-dependent counts of the shard-parallel benchmarks.
func allocAllowance(base int64) int64 {
	slack := base / 10
	if slack < 1 {
		slack = 1
	}
	return base + slack
}

// firstTouchAmortized names the rows whose allocs/op is a first-touch
// count divided by b.N (see compareBaseline): the elision spans and the
// Paper-scale idle rows.
func firstTouchAmortized(name string) bool {
	return strings.HasSuffix(name, "ElideIdle") ||
		strings.HasPrefix(name, "StepPaper") && strings.HasSuffix(name, "Idle")
}

// compareBaseline diffs the fresh measurements against a committed
// baseline report and returns the process exit code. Allocs/op growth
// fails (except on the first-touch-amortized rows, where it only
// annotates — see the inline comment); ns/op regressions fail
// unless nsWarnOnly, which turns them into GitHub warning annotations
// (shared CI runners make wall time noisy, while allocation counts stay
// deterministic). Benchmarks present on only one side are reported and
// skipped.
func compareBaseline(path string, fresh Report, nsWarnOnly bool) int {
	data, err := os.ReadFile(path)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	var base Report
	if err := json.Unmarshal(data, &base); err != nil {
		fmt.Fprintf(os.Stderr, "bench: parsing baseline %s: %v\n", path, err)
		return 2
	}
	// Baselines written before the field was recorded ran at the default.
	if effectiveBenchtime(base.Benchtime) != fresh.Benchtime {
		fmt.Fprintf(os.Stderr,
			"bench: benchtime mismatch: gate run measured at %s but baseline %s was recorded at %s; rerun with -benchtime %s (or refresh the baseline)\n",
			fresh.Benchtime, path, effectiveBenchtime(base.Benchtime), effectiveBenchtime(base.Benchtime))
		return 2
	}
	baseline := make(map[string]BenchResult, len(base.Benchmarks))
	for _, b := range base.Benchmarks {
		baseline[b.Name] = b
	}
	fail := false
	for _, cur := range fresh.Benchmarks {
		b, ok := baseline[cur.Name]
		if !ok {
			fmt.Printf("%-26s new benchmark, no baseline — skipped\n", cur.Name)
			continue
		}
		delete(baseline, cur.Name)
		status := "ok"
		if allowed := allocAllowance(b.AllocsPerOp); cur.AllocsPerOp > allowed {
			// The ElideIdle spans and the Paper-scale idle rows inject
			// arrivals whose delivery paths lazily first-touch FIFOs, so
			// their amortized allocs/op depends on b.N — on how fast the
			// host ran — and the draw, not a deterministic count like
			// the loaded and Small per-cycle benchmarks. Annotate
			// instead of failing. Still needed with the pooled calendar
			// and fixed-size active sets: a memory profile of
			// StepPaperIdle attributes the Step allocations to fifo[T]
			// first pushes (64k output stages, 16.5k NIC queues, one
			// small backing array each: 115k of 122k) and
			// packet-freelist misses (6k), which 1 % load spreads over
			// far more cycles than a run; the calendar's chunk pool
			// accounts for ~500, all in warm-up. The same build reads
			// 6 to 9 allocs/op on that row as b.N moves, which is why
			// the Paper idle rows joined the ElideIdle ones here.
			if firstTouchAmortized(cur.Name) {
				fmt.Printf("::warning title=allocs/op above baseline (first-touch-amortized benchmark)::%s allocs/op %d > baseline %d (allowed %d)\n",
					cur.Name, cur.AllocsPerOp, b.AllocsPerOp, allowed)
				status = "warn"
			} else {
				status = "FAIL"
				fail = true
				fmt.Printf("::error title=allocs/op regression::%s allocs/op %d > baseline %d (allowed %d)\n",
					cur.Name, cur.AllocsPerOp, b.AllocsPerOp, allowed)
			}
		}
		ratio := 0.0
		if b.NsPerOp > 0 {
			ratio = cur.NsPerOp / b.NsPerOp
		}
		if ratio > nsRegressionFactor {
			if nsWarnOnly {
				if status == "ok" {
					status = "warn"
				}
				fmt.Printf("::warning title=ns/op regression::%s ns/op %.0f is %.2fx baseline %.0f (> %.1fx)\n",
					cur.Name, cur.NsPerOp, ratio, b.NsPerOp, nsRegressionFactor)
			} else {
				status = "FAIL"
				fail = true
				fmt.Printf("::error title=ns/op regression::%s ns/op %.0f is %.2fx baseline %.0f (> %.1fx)\n",
					cur.Name, cur.NsPerOp, ratio, b.NsPerOp, nsRegressionFactor)
			}
		}
		fmt.Printf("%-26s ns/op %9.0f vs %9.0f (%.2fx)  allocs/op %3d vs %3d  %s\n",
			cur.Name, cur.NsPerOp, b.NsPerOp, ratio, cur.AllocsPerOp, b.AllocsPerOp, status)
	}
	for name := range baseline {
		if name == "StepSmallBurstDrain" {
			continue // excluded from compare runs by design
		}
		fmt.Printf("%-26s in baseline but not measured — skipped\n", name)
	}
	if fail {
		fmt.Println("bench: regression gate FAILED")
		return 1
	}
	fmt.Println("bench: regression gate passed")
	return 0
}

func endToEnd(cycles int64) (EndToEnd, error) {
	const load = 0.3
	net, inj, err := sim.NewStepBench(spec{Scale: sim.Small, Algo: routing.Base, Load: load})
	if err != nil {
		return EndToEnd{}, err
	}
	delivered0 := net.NumDelivered
	phits0 := net.DeliveredPhits
	start := time.Now()
	stepCycles(net, inj, int(cycles))
	wall := time.Since(start)
	return EndToEnd{
		Scale:        "small",
		Algo:         "base",
		Load:         load,
		Cycles:       cycles,
		WallMs:       float64(wall.Microseconds()) / 1000,
		CyclesPerSec: float64(cycles) / wall.Seconds(),
		Delivered:    net.NumDelivered - delivered0,
		AvgPhitsLoad: float64(net.DeliveredPhits-phits0) /
			(float64(cycles) * float64(net.Topo.Nodes)),
	}, nil
}

func main() {
	out := flag.String("o", "BENCH_step.json", "output file (- for stdout)")
	e2eCycles := flag.Int64("cycles", 20000, "end-to-end run length in cycles")
	compare := flag.String("compare", "", "baseline BENCH_step.json to gate against: rerun the step suite and exit nonzero on allocs/op growth or a >2.5x ns/op regression instead of writing a report")
	benchtime := flag.String("benchtime", "", "per-benchmark measurement time (default 1s). For -compare, keep it at the baseline's own benchtime: a much shorter window inflates allocs/op, since one-off amortized allocations (FIFO first pushes, calendar chunk-pool misses) stop averaging out over few iterations")
	nsWarnOnly := flag.Bool("ns-warn-only", false, "with -compare: report ns/op regressions as GitHub warning annotations without failing (for noisy shared runners); allocs/op growth still fails")
	testing.Init()
	flag.Parse()
	if *e2eCycles < 1 {
		fmt.Fprintf(os.Stderr, "bench: -cycles %d must be >= 1\n", *e2eCycles)
		os.Exit(2)
	}
	if *benchtime != "" {
		if err := flag.Set("test.benchtime", *benchtime); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(2)
		}
	}

	var burstCycles float64
	suite := []struct {
		name    string
		workers int // 0 in the table means sequential (recorded as 1)
		fn      func(b *testing.B)
	}{
		{"StepTinyBase", 0, stepBench(spec{Scale: sim.Tiny, Algo: routing.Base, Load: 0.3})},
		{"StepSmallBase", 0, stepBench(spec{Scale: sim.Small, Algo: routing.Base, Load: 0.3})},
		// UN 0.5 is the loaded point with the most events in flight below
		// saturation: the row the event calendar's working set shows in.
		{"StepSmallBase05", 0, stepBench(spec{Scale: sim.Small, Algo: routing.Base, Load: 0.5})},
		{"StepSmallMin", 0, stepBench(spec{Scale: sim.Small, Algo: routing.Min, Load: 0.3})},
		{"StepSmallECtN", 0, stepBench(spec{Scale: sim.Small, Algo: routing.ECtN, Load: 0.3})},
		{"StepSmallPB", 0, stepBench(spec{Scale: sim.Small, Algo: routing.PB, Load: 0.3})},
		// The past-saturation entries track blocked-router parking: MIN
		// under ADV+1 pins at 1/(a*p) with every NIC full and nearly
		// every head blocked on credits (the regime where a revisit per
		// cycle cost 200+ Route calls per grant); OLM at 0.4 misroutes
		// and re-samples its blocked heads, so fewer of its routers park.
		{"StepSmallMinAdvSat", 0, stepBench(spec{Scale: sim.Small, Algo: routing.Min, Workload: sim.ADV(1), Load: 0.4, Saturated: true})},
		{"StepSmallOLMAdv04", 0, stepBench(spec{Scale: sim.Small, Algo: routing.OLM, Workload: sim.ADV(1), Load: 0.4, Saturated: true})},
		{"StepSmallIdle", 0, stepBench(spec{Scale: sim.Small, Algo: routing.Base, Load: 0.01})},
		{"StepSmallFullScanIdle", 0, stepBench(spec{Scale: sim.Small, Algo: routing.Base, Load: 0.01, FullScan: true})},
		// The faults-idle entry carries a quiescent fault plan (one event
		// scheduled far past the horizon): pinned beside StepSmallIdle,
		// the delta is the fault engine's hot-path cost, which must stay
		// ~zero — the engine only spends cycles when events fire.
		{"StepSmallFaultsIdle", 0, stepBench(spec{Scale: sim.Small, Algo: routing.Base, Load: 0.01, QuiescentFaults: true})},
		// The PB/ECtN idle benchmarks track the event-driven algorithm
		// layer; the RefScan variants pin the retained full-recompute
		// reference (the original polled implementation) beside them.
		// The ElideIdle entries measure the quiet-cycle elision path: one
		// op is a whole ElideIdleSpan-cycle span at deep-idle load, with
		// the clock jumping between events. Their span-normalized
		// cycles/sec sits beside the per-cycle Idle entries above.
		{"StepSmallElideIdle", 0, stepBenchElideIdle(sim.Small)},
		{"StepPaperElideIdle", 0, stepBenchElideIdle(sim.Paper)},
		{"StepSmallPBIdle", 0, stepBench(spec{Scale: sim.Small, Algo: routing.PB, Load: 0.01})},
		{"StepSmallPBRefScanIdle", 0, stepBench(spec{Scale: sim.Small, Algo: routing.PB, Load: 0.01, RefScan: true})},
		{"StepSmallECtNIdle", 0, stepBench(spec{Scale: sim.Small, Algo: routing.ECtN, Load: 0.01})},
		{"StepSmallECtNRefScanIdle", 0, stepBench(spec{Scale: sim.Small, Algo: routing.ECtN, Load: 0.01, RefScan: true})},
		// The bursty/hotspot idle entries track the stateful calendar
		// injector beside the Bernoulli skip-sampler: same scale, same
		// load, different arrival process — the delta is the cost of
		// per-node source state.
		{"StepSmallBurstyIdle", 0, stepBench(spec{Scale: sim.Small, Algo: routing.Base, Workload: sim.UN().WithBurst(50, 150, 0), Load: 0.01})},
		{"StepSmallHotspotIdle", 0, stepBench(spec{Scale: sim.Small, Algo: routing.Base, Workload: sim.HotspotUN(0.2, 8), Load: 0.01})},
		{"StepPaperIdle", 0, stepBench(spec{Scale: sim.Paper, Algo: routing.Base, Load: 0.01})},
		{"StepPaperBurstyIdle", 0, stepBench(spec{Scale: sim.Paper, Algo: routing.Base, Workload: sim.UN().WithBurst(50, 150, 0), Load: 0.01})},
		{"StepPaperPBIdle", 0, stepBench(spec{Scale: sim.Paper, Algo: routing.PB, Load: 0.01})},
		{"StepPaperPBRefScanIdle", 0, stepBench(spec{Scale: sim.Paper, Algo: routing.PB, Load: 0.01, RefScan: true})},
		{"StepPaperECtNIdle", 0, stepBench(spec{Scale: sim.Paper, Algo: routing.ECtN, Load: 0.01})},
		// The workers entries track the shard-parallel stepper beside
		// the sequential stepper at a loaded operating point (30% UN,
		// the parallel-stepper acceptance regime); the cycles are
		// bit-identical, so the cycles/sec ratio is pure parallel
		// speedup minus barrier cost. Meaningful on a multi-core host.
		{"StepSmallWorkers1", 1, stepBench(spec{Scale: sim.Small, Algo: routing.Base, Load: 0.3, Workers: 1})},
		{"StepSmallWorkers4", 4, stepBench(spec{Scale: sim.Small, Algo: routing.Base, Load: 0.3, Workers: 4})},
		{"StepPaperWorkers1", 1, stepBench(spec{Scale: sim.Paper, Algo: routing.Base, Load: 0.3, Workers: 1})},
		{"StepPaperWorkers4", 4, stepBench(spec{Scale: sim.Paper, Algo: routing.Base, Load: 0.3, Workers: 4})},
		{"StepSmallBurstDrain", 0, burstDrainBench(&burstCycles)},
	}

	rep := Report{
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Benchtime:  effectiveBenchtime(*benchtime),
	}
	for _, s := range suite {
		if *compare != "" && s.name == "StepSmallBurstDrain" {
			continue // composite op; ns/op is dominated by drain length, not Step cost
		}
		fmt.Fprintf(os.Stderr, "running %s...\n", s.name)
		r := testing.Benchmark(s.fn)
		workers := s.workers
		if workers == 0 {
			workers = 1
		}
		res := BenchResult{
			Name:        s.name,
			NsPerOp:     float64(r.T.Nanoseconds()) / float64(r.N),
			AllocsPerOp: r.AllocsPerOp(),
			BytesPerOp:  r.AllocedBytesPerOp(),
			Workers:     workers,
		}
		switch s.name {
		case "StepSmallBurstDrain":
			res.CyclesPerOp = burstCycles
		case "StepSmallElideIdle", "StepPaperElideIdle":
			res.CyclesPerOp = sim.ElideIdleSpan
			if res.NsPerOp > 0 {
				res.CyclesPerSec = sim.ElideIdleSpan * 1e9 / res.NsPerOp
			}
		default:
			res.CyclesPerOp = 1
			if res.NsPerOp > 0 {
				res.CyclesPerSec = 1e9 / res.NsPerOp
			}
		}
		rep.Benchmarks = append(rep.Benchmarks, res)
	}

	if *compare != "" {
		os.Exit(compareBaseline(*compare, rep, *nsWarnOnly))
	}

	fmt.Fprintf(os.Stderr, "running end-to-end (%d cycles)...\n", *e2eCycles)
	e2e, err := endToEnd(*e2eCycles)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	rep.EndToEnd = e2e

	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	data = append(data, '\n')
	if *out == "-" {
		os.Stdout.Write(data)
		return
	}
	if err := os.WriteFile(*out, data, 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "wrote %s\n", *out)
}
