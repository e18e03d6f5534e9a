// sweep runs an offered-load sweep for one or more routing mechanisms
// under one traffic pattern and prints a CSV, the building block of the
// paper's Figure 5 plots.
//
// Examples:
//
//	sweep -routing min,base,olm -traffic adv+1
//	sweep -scale small -routing all -traffic un -loads 0.1,0.3,0.5,0.7,0.9
//	sweep -traffic hotspot:0.2,8
//	sweep -traffic tornado -routing base,olm
//	sweep -traffic perm:shift+16
//	sweep -traffic burst:50,200          (uniform destinations, bursty arrivals)
//	sweep -traffic adv+1+burst:50,200,0.8+skew:0.1,0.5
//	sweep -scale small -routing base,ectn -traffic un -adaptive
//
// The whole load×seed grid runs through one bounded worker pool; every
// row reports the cross-seed merged-histogram percentiles plus the
// fraction of latencies beyond the histogram cap (overflow_frac > 0
// means the reported percentiles are saturated).
//
// -adaptive replaces the fixed warmup/measure windows with the adaptive
// measurement engine (MSER warmup truncation, batch-means CI stopping
// at a 5% relative half-width, saturation short-circuit, at most 4x
// -measure cycles measured per seed) and appends ci_half_latency,
// measured_cycles, warmup_cycles, saturated, converged columns; without
// it the output is byte-identical to previous releases (pinned by
// testdata/golden).
//
// -congestion on enables the congestion-management layer (ECN-style
// port marking, source notifications, AIMD injection throttling, NIC
// shedding; its parameters are fixed) and appends marked, notified,
// throttled, shed counter columns; "off" (the default) keeps the layer
// out of the simulation and the CSV byte-identical to previous releases:
//
//	sweep -traffic hotspot:0.3,8 -routing base -congestion on
//
// -faults schedules a deterministic fault plan (link/router failures
// and repairs, random link-failure expansion, optional source
// retransmission) and appends dropped, retried, unroutable counter
// columns; "off" (the default) keeps the engine out of the simulation
// and the CSV byte-identical to previous releases:
//
//	sweep -traffic un -routing base,olm -faults random:5%@1000
//	sweep -faults linkdown:3,7@500+linkup:3,7@2500+retry:3
//
// SIGINT/SIGTERM cancel the sweep cooperatively: completed rows are
// flushed and the process exits with status 130.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"

	"cbar"
	"cbar/internal/prof"
)

func main() {
	var (
		scaleName = flag.String("scale", "tiny", "network scale: tiny|small|paper")
		algoList  = flag.String("routing", "all", "comma-separated mechanisms, or 'all'")
		trafName  = flag.String("traffic", "un", "traffic: un | adv+N | mix:F,N | hotspot:F,H | perm:shift+K | perm:complement | tornado | burst:ON,OFF[,PEAK]; +burst:/+skew: suffixes compose")
		loadsCSV  = flag.String("loads", "0.05,0.1,0.2,0.3,0.4,0.5,0.6,0.7,0.8,0.9,1.0", "offered loads")
		warmup    = flag.Int64("warmup", 0, "warmup cycles (0 = scale default)")
		measure   = flag.Int64("measure", 0, "measurement cycles (0 = scale default)")
		seeds     = flag.Int("seeds", 0, "repeats per point (0 = scale default)")
		workers   = flag.Int("workers", 0, "shard workers per simulated network, >= 0 (0 = auto: shard runs across idle cores when the load×seed grid is narrower than GOMAXPROCS, 1 = sequential stepping; results are identical at any count)")
		adaptive  = flag.Bool("adaptive", false, "adaptive measurement: MSER warmup truncation + batch-means CI stopping (5% relative half-width) + saturation short-circuit instead of fixed windows (-warmup caps the warmup, 4x -measure caps the measurement); adds CI/cost columns to the CSV")
		congSpec  = flag.String("congestion", "off", "congestion management: off | on; adds marked,notified,throttled,shed columns when enabled")
		faultSpec = flag.String("faults", "off", "fault plan: off | linkdown:R,P@C | linkup:R,P@C | routerdown:R@C | routerup:R@C | random:F%@C[,seed] | retry:N[,base]; compose with '+'; adds dropped,retried,unroutable columns when enabled")
		cpuProf   = flag.String("cpuprofile", "", "write a CPU profile of the sweep to this file (go tool pprof)")
		memProf   = flag.String("memprofile", "", "write a heap profile to this file when the sweep ends")
	)
	flag.Parse()

	stopProf, err := prof.Start(*cpuProf, *memProf)
	die(err)
	defer func() { die(stopProf()) }()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	scale, err := cbar.ParseScale(*scaleName)
	die(err)

	var algos []cbar.Algorithm
	if *algoList == "all" {
		algos = cbar.Algorithms()
	} else {
		for _, name := range strings.Split(*algoList, ",") {
			a, err := cbar.ParseAlgorithm(name)
			die(err)
			algos = append(algos, a)
		}
	}

	traf, err := cbar.ParseTraffic(*trafName)
	die(err)

	cong, err := cbar.ParseCongestion(*congSpec)
	die(err)

	faults, err := cbar.ParseFaults(*faultSpec)
	die(err)

	var loads []float64
	for _, f := range strings.Split(*loadsCSV, ",") {
		v, err := strconv.ParseFloat(strings.TrimSpace(f), 64)
		die(err)
		loads = append(loads, v)
	}

	// The fixed-mode header and row format are pinned byte-for-byte by
	// testdata/golden (see golden_test.go and the CI golden gate); the
	// adaptive columns only ever append behind -adaptive.
	fmt.Printf("# %s traffic on %s scale\n", traf.Name(), scale)
	header := "load,algo,avg_latency_cycles,p99_latency_cycles,accepted_phits_node_cycle,misrouted_global_frac,overflow_frac"
	if *adaptive {
		header += ",ci_half_latency,measured_cycles,warmup_cycles,saturated,converged"
	}
	if cong.Enabled {
		header += ",marked,notified,throttled,shed"
	}
	if faults.Enabled() {
		header += ",dropped,retried,unroutable"
	}
	fmt.Println(header)
	opt := cbar.SteadyOptions{
		Warmup: *warmup, Measure: *measure, Seeds: *seeds,
		Adaptive: *adaptive, Ctx: ctx,
	}
	for _, a := range algos {
		cfg := cbar.NewConfig(scale, a)
		cfg.Workers = *workers
		cfg.Congestion = cong
		cfg.Faults = faults
		rs, err := cbar.Sweep(cfg, traf, loads, opt)
		if errors.Is(err, context.Canceled) {
			fmt.Fprintln(os.Stderr, "sweep: interrupted, completed rows flushed")
			die(stopProf())
			os.Exit(130)
		}
		die(err)
		for _, r := range rs {
			row := fmt.Sprintf("%.3f,%s,%.2f,%d,%.4f,%.4f,%.4f",
				r.Load, r.Algo, r.AvgLatency, r.P99, r.Accepted, r.MisroutedGlobal, r.OverflowFrac)
			if *adaptive {
				row += fmt.Sprintf(",%.2f,%d,%d,%t,%t",
					r.CIHalfLatency, r.MeasuredCycles, r.WarmupCycles, r.Saturated, r.Converged)
			}
			if cong.Enabled {
				row += fmt.Sprintf(",%d,%d,%d,%d",
					r.Marked, r.Notified, r.Throttled, r.Shed)
			}
			if faults.Enabled() {
				row += fmt.Sprintf(",%d,%d,%d",
					r.Dropped, r.Retried, r.Unroutable)
			}
			fmt.Println(row)
		}
	}
}

func die(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "sweep:", err)
		os.Exit(1)
	}
}
