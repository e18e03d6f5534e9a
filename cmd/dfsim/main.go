// dfsim runs a single Dragonfly simulation — one routing mechanism, one
// traffic pattern, one offered load — and prints the steady-state
// metrics, or a transient trace with -transient.
//
// Examples:
//
//	dfsim -routing base -traffic adv+1 -load 0.2
//	dfsim -scale small -routing olm -traffic un -load 0.5 -seeds 5
//	dfsim -routing ectn -transient -traffic un -traffic2 adv+1 -load 0.2
//	dfsim -p 8 -a 16 -h 8 -routing base -traffic un -load 0.3   (paper scale)
package main

import (
	"flag"
	"fmt"
	"os"

	"cbar"
	"cbar/internal/prof"
)

func main() {
	var (
		scaleName = flag.String("scale", "tiny", "network scale: tiny|small|paper (overridden by -p/-a/-h)")
		pFlag     = flag.Int("p", 0, "nodes per router (custom topology)")
		aFlag     = flag.Int("a", 0, "routers per group (custom topology)")
		hFlag     = flag.Int("h", 0, "global links per router (custom topology)")
		algoName  = flag.String("routing", "base", "routing mechanism: min|val|pb|olm|base|hybrid|ectn|basep")
		trafName  = flag.String("traffic", "un", "traffic: un | adv+N | mix:F,N | hotspot:F,H | perm:shift+K | perm:complement | tornado | burst:ON,OFF[,PEAK]; +burst:/+skew: suffixes compose")
		traf2Name = flag.String("traffic2", "adv+1", "post-switch traffic for -transient")
		load      = flag.Float64("load", 0.2, "offered load in phits/(node*cycle)")
		warmup    = flag.Int64("warmup", 0, "warmup cycles (0 = scale default)")
		measure   = flag.Int64("measure", 0, "measurement cycles (0 = scale default)")
		seeds     = flag.Int("seeds", 0, "independent repeats (0 = scale default)")
		transient = flag.Bool("transient", false, "run a traffic-switch trace instead of steady state")
		bucket    = flag.Int64("bucket", 0, "transient trace bucket width in cycles")
		post      = flag.Int64("post", 0, "transient trace length after the switch")
		baseTh    = flag.Int("th", 0, "override the Base/ECtN contention threshold, >= 0 (0 = scale default)")
		workers   = flag.Int("workers", 0, "shard workers per simulated network, >= 0 (0 = auto, 1 = sequential; results are identical at any count)")
		congSpec  = flag.String("congestion", "off", "congestion management: off | on")
		faultSpec = flag.String("faults", "off", "fault plan: off | linkdown:R,P@C | linkup:R,P@C | routerdown:R@C | routerup:R@C | random:F%@C[,seed] | retry:N[,base]; compose with '+'")
		cpuProf   = flag.String("cpuprofile", "", "write a CPU profile of the run to this file (go tool pprof)")
		memProf   = flag.String("memprofile", "", "write a heap profile to this file when the run ends")
	)
	flag.Parse()

	stopProf, err := prof.Start(*cpuProf, *memProf)
	die(err)
	defer func() { die(stopProf()) }()

	algo, err := cbar.ParseAlgorithm(*algoName)
	die(err)
	var cfg cbar.Config
	if *pFlag > 0 || *aFlag > 0 || *hFlag > 0 {
		if *pFlag <= 0 || *aFlag <= 0 || *hFlag <= 0 {
			die(fmt.Errorf("custom topology needs all of -p, -a, -h"))
		}
		cfg = cbar.NewConfigFor(*pFlag, *aFlag, *hFlag, algo)
	} else {
		scale, err := cbar.ParseScale(*scaleName)
		die(err)
		cfg = cbar.NewConfig(scale, algo)
	}
	if *baseTh != 0 {
		cfg.BaseTh = *baseTh // a negative one is rejected when the network is built
	}
	cfg.Workers = *workers

	cong, err := cbar.ParseCongestion(*congSpec)
	die(err)
	cfg.Congestion = cong

	faults, err := cbar.ParseFaults(*faultSpec)
	die(err)
	cfg.Faults = faults

	traf, err := cbar.ParseTraffic(*trafName)
	die(err)

	fmt.Printf("# dragonfly p=%d a=%d h=%d: %d groups, %d routers, %d nodes\n",
		cfg.P, cfg.A, cfg.H, cfg.Groups(), cfg.Routers(), cfg.Nodes())
	fmt.Printf("# routing=%s traffic=%s load=%.3f\n", cfg.Algorithm, traf.Name(), *load)

	if *transient {
		traf2, err := cbar.ParseTraffic(*traf2Name)
		die(err)
		res, err := cbar.RunTransient(cfg, traf, traf2, *load, cbar.TransientOptions{
			Warmup: *warmup, Post: *post, Bucket: *bucket, Seeds: *seeds,
		})
		die(err)
		fmt.Printf("# switch %s -> %s at cycle 0\n", traf.Name(), traf2.Name())
		fmt.Println("cycle,avg_latency_cycles,misrouted_pct")
		for i := range res.Times {
			fmt.Printf("%d,%.2f,%.2f\n", res.Times[i], res.Latency[i], res.MisroutedPct[i])
		}
		return
	}

	res, err := cbar.RunSteady(cfg, traf, *load, cbar.SteadyOptions{
		Warmup: *warmup, Measure: *measure, Seeds: *seeds,
	})
	die(err)
	fmt.Printf("avg_latency_cycles:   %.2f\n", res.AvgLatency)
	fmt.Printf("p50_latency_cycles:   %d\n", res.P50)
	fmt.Printf("p99_latency_cycles:   %d\n", res.P99)
	fmt.Printf("accepted_load:        %.4f phits/(node*cycle)\n", res.Accepted)
	fmt.Printf("misrouted_global:     %.2f%%\n", 100*res.MisroutedGlobal)
	fmt.Printf("misrouted_local:      %.2f%%\n", 100*res.MisroutedLocal)
	fmt.Printf("avg_hops:             %.2f\n", res.AvgHops)
	fmt.Printf("util_local_links:     %.1f%%\n", 100*res.UtilLocal)
	fmt.Printf("util_global_links:    %.1f%%\n", 100*res.UtilGlobal)
	fmt.Printf("packets_measured:     %d (over %d seeds)\n", res.Delivered, res.Seeds)
	if cong.Enabled {
		fmt.Printf("congestion_marked:    %d packets\n", res.Marked)
		fmt.Printf("congestion_notified:  %d notifications\n", res.Notified)
		fmt.Printf("congestion_throttled: %d injection attempts\n", res.Throttled)
		fmt.Printf("congestion_shed:      %d packets\n", res.Shed)
	}
	if faults.Enabled() {
		fmt.Printf("fault_dropped:        %d packets\n", res.Dropped)
		fmt.Printf("fault_retried:        %d packets\n", res.Retried)
		fmt.Printf("fault_unroutable:     %d packets\n", res.Unroutable)
	}
}

func die(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "dfsim:", err)
		os.Exit(1)
	}
}
