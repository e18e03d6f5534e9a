package main

import (
	"fmt"
	"runtime"

	"cbar"
	"cbar/internal/rng"
	"cbar/internal/sim"
)

// workload is one figure-shaped set of simulation points: a grid of
// (algorithm, load) over one scale, traffic and feature set. The same
// description drives both sides of the benchmark: the public cbar API
// (untraced end-to-end runs) and the benchmark's own layer driver
// (traced and untraced replays), whose digests must agree.
type workload struct {
	// name keys the workload in BENCHMARK.json, which also says in one
	// line why it exists; README.md has the long form.
	name  string
	scale cbar.Scale
	algs  []cbar.Algorithm
	// traffic is the cbar.ParseTraffic spec the API side runs; pattern
	// is the same traffic for the driver side. cbar.Traffic hides its
	// sim.Workload, so the two are stated twice and the digest check
	// proves they agree.
	traffic string
	pattern sim.Workload
	loads   []float64
	// warmup and measure are the fixed windows in simulated cycles.
	warmup, measure int64
	// passes is the number of untraced public-API passes an end-to-end
	// run times (at least minRounds). It is a constant of the workload,
	// never derived from elapsed time, so two commits being compared do
	// the same work and their medians rest on the same sample count.
	passes int
	// workers is Config.Workers for every point (1 = sequential).
	workers int
	// parallel marks the workload whose point is the shard-parallel
	// stepper: it is refused on a host that cannot give it two workers.
	parallel bool
	// sameDigestAs names a workload that runs the same points another
	// way: a run of all workloads requires the two sim_digests equal.
	sameDigestAs string
	// ungated is why BENCHMARK.json does not list the workload ("" = it
	// does). A run of all workloads still measures it; only the benchmark
	// driver's regression gate, which runs what BENCHMARK.json lists, does
	// not.
	ungated string
	// congestion turns the congestion-management layer on ("on").
	congestion bool
	// faults is the cbar.ParseFaults spec ("" = no faults). It is fixed,
	// not seed-derived: the random-cable seed alone moved the stress
	// workload's accepted load by 5 % between seeds, which no bound on a
	// modelled metric could have absorbed.
	faults string
	// setupAlg is the algorithm of the workload's largest configuration,
	// the one setup_s and bytes_per_node construct; setupSamples is how
	// many constructions setup_s is the median of (at least 11), sized so
	// that they take 0.3-3 s.
	setupAlg     cbar.Algorithm
	setupSamples int
	// bounds checks closed-form model bounds over one pass's results
	// (nil = none apply); it returns one message per violated point,
	// keyed by point index.
	bounds func(w *workload, in inputs, rs []cbar.SteadyResult) map[int]string
}

// parWorkers is the shard worker count of paper_un_par.
func parWorkers() int {
	if n := runtime.NumCPU(); n < 4 {
		return n
	}
	return 4
}

// paperScaleDrift is why the Paper-scale workloads are ungated. README.md,
// "Steadiness", has the measurements.
const paperScaleDrift = "its out-of-cache working set makes host time follow the shared host's cache and memory share, " +
	"which drifts by more than the largest bound a gate may have (0.25) over the minutes a set of runs takes"

// workloads returns the six benchmark workloads. Points and passes are
// sized so that the passes of a gated workload's run take about
// run_seconds on a two-core host; windows are sized from the model's
// latencies (README.md, "Windows and steady state", has the measurements
// behind them).
func workloads() []*workload {
	return []*workload{
		{
			name:    "small_un_sweep",
			scale:   cbar.Small,
			algs:    []cbar.Algorithm{cbar.MIN, cbar.PB, cbar.OLM, cbar.Base, cbar.ECtN},
			traffic: "un", pattern: sim.UN(),
			loads:  []float64{0.1, 0.3, 0.5},
			warmup: 2000, measure: 1000, passes: 6,
			workers: 1, setupAlg: cbar.PB, setupSamples: 301,
			bounds: uniformBounds,
		},
		{
			name:    "small_adv_sweep",
			scale:   cbar.Small,
			algs:    []cbar.Algorithm{cbar.MIN, cbar.OLM, cbar.ECtN},
			traffic: "adv+1", pattern: sim.ADV(1),
			loads:  []float64{0.1, 0.25, 0.4},
			warmup: 2000, measure: 1000, passes: 5,
			workers: 1, setupAlg: cbar.ECtN, setupSamples: 301,
			bounds: adversarialBounds,
		},
		{
			name:    "paper_un_w1",
			scale:   cbar.Paper,
			algs:    []cbar.Algorithm{cbar.Base},
			traffic: "un", pattern: sim.UN(),
			loads:  []float64{0.3},
			warmup: 400, measure: 400, passes: 3,
			workers: 1, setupAlg: cbar.Base, setupSamples: 41,
			ungated: paperScaleDrift,
		},
		{
			name:    "paper_un_par",
			scale:   cbar.Paper,
			algs:    []cbar.Algorithm{cbar.Base},
			traffic: "un", pattern: sim.UN(),
			loads:  []float64{0.3},
			warmup: 400, measure: 400, passes: 5,
			workers: parWorkers(), parallel: true, sameDigestAs: "paper_un_w1", setupAlg: cbar.Base, setupSamples: 41,
			ungated: paperScaleDrift,
		},
		{
			name:    "small_idle_bursty",
			scale:   cbar.Small,
			algs:    []cbar.Algorithm{cbar.Base},
			traffic: "un+burst:50,150", pattern: sim.UN().WithBurst(50, 150, 0),
			loads:  []float64{0.00001},
			warmup: 500000, measure: 6000000, passes: 9,
			workers: 1, setupAlg: cbar.Base, setupSamples: 11,
		},
		{
			name:    "small_stress_mix",
			scale:   cbar.Small,
			algs:    []cbar.Algorithm{cbar.MIN, cbar.Base, cbar.ECtN},
			traffic: "adv+1+burst:50,150", pattern: sim.ADV(1).WithBurst(50, 150, 0),
			loads:  []float64{0.3, 0.7},
			warmup: 1500, measure: 1000, passes: 7,
			workers: 1, setupAlg: cbar.ECtN, setupSamples: 301,
			congestion: true,
			faults:     "random:5%@500,12345+routerdown:77@1600+routerup:77@2100+retry:3",
		},
	}
}

// findWorkload resolves a workload by name.
func findWorkload(name string) (*workload, error) {
	var names []string
	for _, w := range workloads() {
		if w.name == name {
			return w, nil
		}
		names = append(names, w.name)
	}
	return nil, fmt.Errorf("unknown workload %q (have %v)", name, names)
}

// inputs are the seed-generated inputs of one run: the program under
// test sees only these, never the seed.
type inputs struct {
	// loads are the workload's offered loads, each scaled by a factor
	// within loadJitter of 1.
	loads []float64
}

// loadJitter bounds the relative load perturbation a seed applies. It is
// kept far below the metrics' bounds so that seed-to-seed spread measures
// the host, not the inputs.
const loadJitter = 0.001

// inputs generates the run's inputs from the seed: the same seed gives
// the same inputs. The simulation's own PRNG seed stays fixed (repeat 0
// of the public API), so a seed moves the operating points slightly
// without changing which random streams the model consumes.
func (w *workload) inputs(seed uint64) inputs {
	r := rng.New(seed, 0xBE7C4)
	in := inputs{loads: make([]float64, len(w.loads))}
	for i, l := range w.loads {
		in.loads[i] = l * (1 + loadJitter*(2*r.Float64()-1))
	}
	return in
}

// point is one (algorithm, load) operation of a workload.
type point struct {
	alg  cbar.Algorithm
	load float64
}

// points lists the workload's operations in reporting order: algorithms
// outermost, loads innermost, matching the order runAPI returns results.
func (w *workload) points(in inputs) []point {
	var ps []point
	for _, a := range w.algs {
		for _, l := range in.loads {
			ps = append(ps, point{a, l})
		}
	}
	return ps
}

// cycles is the number of simulated cycles one pass over the workload
// covers (warmup + measure, summed over points).
func (w *workload) cycles() int64 {
	return int64(len(w.algs)*len(w.loads)) * (w.warmup + w.measure)
}
