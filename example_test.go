package cbar_test

import (
	"fmt"
	"log"
	"os"

	"cbar"
)

// Example_steadyState measures latency and throughput for the paper's
// Base mechanism under adversarial traffic.
func Example_steadyState() {
	cfg := cbar.NewConfig(cbar.Tiny, cbar.Base)
	res, err := cbar.RunSteady(cfg, cbar.Adversarial(1), 0.2, cbar.SteadyOptions{
		Warmup:  1000,
		Measure: 1000,
		Seeds:   2,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%s under %s: most packets misrouted = %v\n",
		res.Algo, res.Workload, res.MisroutedGlobal > 0.9)
	// Output: Base under ADV+1: most packets misrouted = true
}

// Example_comparingMechanisms sweeps one load across mechanisms — the
// core comparison of the paper's Figure 5b.
func Example_comparingMechanisms() {
	for _, alg := range []cbar.Algorithm{cbar.MIN, cbar.VAL, cbar.Base} {
		cfg := cbar.NewConfig(cbar.Tiny, alg)
		res, err := cbar.RunSteady(cfg, cbar.Adversarial(1), 0.2, cbar.SteadyOptions{
			Warmup: 1000, Measure: 1000, Seeds: 1,
		})
		if err != nil {
			log.Fatal(err)
		}
		// MIN saturates at the single minimal global link
		// (1/16 phits/node/cycle on this tiny network) while VAL and
		// Base sustain the offered 0.2.
		fmt.Printf("%-4s accepted >= 0.15: %v\n", res.Algo, res.Accepted >= 0.15)
	}
	// Output:
	// MIN  accepted >= 0.15: false
	// VAL  accepted >= 0.15: true
	// Base accepted >= 0.15: true
}

// Example_transient traces the adaptation to a traffic change, the
// experiment of the paper's Figure 7.
func Example_transient() {
	cfg := cbar.NewConfig(cbar.Tiny, cbar.Base)
	res, err := cbar.RunTransient(cfg, cbar.Uniform(), cbar.Adversarial(1), 0.35,
		cbar.TransientOptions{Warmup: 1200, Pre: 100, Post: 500, Bucket: 50, Seeds: 1})
	if err != nil {
		log.Fatal(err)
	}
	// Misrouting before the switch stays low; after the new pattern's
	// packets flow it approaches 100%.
	first, last := res.MisroutedPct[0], res.MisroutedPct[len(res.MisroutedPct)-1]
	fmt.Printf("misrouted: before %v, settled %v\n", first < 25, last > 75)
	// Output: misrouted: before true, settled true
}

// ExampleRunExperiment regenerates a paper artifact (here the §VI-A
// counter analysis) as CSV.
func ExampleRunExperiment() {
	err := cbar.RunExperiment("via", cbar.Tiny, 1, os.Stdout)
	if err != nil {
		log.Fatal(err)
	}
}

// ExampleParseCongestion resolves a congestion-management spec string —
// the same grammar every cmd/cbar subcommand accepts via
// -congestion. The layer is a switch: its parameters are fixed.
func ExampleParseCongestion() {
	g, err := cbar.ParseCongestion("on")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("enabled=%v\n", g.Enabled)
	_, err = cbar.ParseCongestion("on:mark=80")
	fmt.Println(err)
	// Output:
	// enabled=true
	// cbar: congestion spec "on:mark=80" must be off | on
}

// ExampleParseFaults resolves a fault-plan spec string — clauses
// composed with '+' — and shows that Faults.String renders the plan
// back in the same canonical syntax.
func ExampleParseFaults() {
	f, err := cbar.ParseFaults("linkdown:12,5@1000+random:5%@2000,42+retry:3")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("events=%d retry=%d enabled=%v\n", len(f.Events), f.RetryLimit, f.Enabled())
	fmt.Println(f.String())
	// Output:
	// events=1 retry=3 enabled=true
	// linkdown:12,5@1000+random:5%@2000,42+retry:3
}

// ExampleConfig_workers pins the public parallelism contract: the same
// simulation stepped by one worker and by several shard workers is
// bit-identical — Config.Workers changes wall-clock time and nothing
// else.
func ExampleConfig_workers() {
	opt := cbar.SteadyOptions{Warmup: 600, Measure: 600, Seeds: 1}
	var results []cbar.SteadyResult
	for _, workers := range []int{1, 3} {
		cfg := cbar.NewConfig(cbar.Tiny, cbar.Base)
		cfg.Workers = workers
		res, err := cbar.RunSteady(cfg, cbar.Uniform(), 0.2, opt)
		if err != nil {
			log.Fatal(err)
		}
		results = append(results, res)
	}
	fmt.Printf("identical across worker counts: %v\n",
		results[0].AvgLatency == results[1].AvgLatency &&
			results[0].Accepted == results[1].Accepted &&
			results[0].P99 == results[1].P99)
	// Output: identical across worker counts: true
}
