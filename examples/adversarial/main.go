// Adversarial showdown: every routing mechanism of the paper under the
// ADV+1 pattern that saturates a Dragonfly's minimal global links — the
// paper's Figure 5b scenario.
//
// Run with:
//
//	go run ./examples/adversarial [-load 0.2] [-scale tiny|small]
package main

import (
	"flag"
	"fmt"
	"log"

	"cbar"
)

func main() {
	load := flag.Float64("load", 0.2, "offered load in phits/(node*cycle)")
	scaleName := flag.String("scale", "tiny", "network scale")
	seeds := flag.Int("seeds", 2, "independent repeats to average")
	flag.Parse()

	scale, err := cbar.ParseScale(*scaleName)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("ADV+1 traffic at load %.2f — every node floods the single minimal\n", *load)
	fmt.Printf("global link toward the next group; adaptive mechanisms must detect\n")
	fmt.Printf("the hotspot and divert traffic through other groups.\n\n")
	fmt.Println("algo     latency(cyc)  accepted  misrouted  avg-hops")

	for _, alg := range cbar.Algorithms() {
		cfg := cbar.NewConfig(scale, alg)
		res, err := cbar.RunSteady(cfg, cbar.Adversarial(1), *load, cbar.SteadyOptions{
			Warmup:  1500,
			Measure: 1500,
			Seeds:   *seeds,
		})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-8s %9.1f     %.3f     %5.1f%%    %.2f\n",
			res.Algo, res.AvgLatency, res.Accepted, 100*res.MisroutedGlobal, res.AvgHops)
	}

	fmt.Println("\nExpected shape (paper Fig. 5b): MIN collapses at the single-link")
	fmt.Println("bound; VAL pays full Valiant latency; the contention mechanisms")
	fmt.Println("(Base/Hybrid/ECtN) match or beat the credit-based OLM and PB.")
}
