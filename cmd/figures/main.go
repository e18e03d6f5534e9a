// figures regenerates the data behind every table and figure of the
// paper's evaluation (Figures 5-10 and the §VI-A analysis), writing one
// CSV per experiment.
//
// Examples:
//
//	figures -fig all -scale tiny            # quick qualitative pass
//	figures -fig fig5b -scale small         # one figure, laptop scale
//	figures -fig all -scale paper -out data # the full Table I system
//
// Absolute numbers depend on scale; the shape of each figure (who wins,
// by how much, where crossovers sit) is the reproduction target —
// ExperimentTitle describes each id, and README.md walks the set.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"cbar"
	"cbar/internal/prof"
)

func main() {
	var (
		figFlag   = flag.String("fig", "all", "experiment ids ("+strings.Join(cbar.ExperimentIDs(), "|")+"), or 'all' (figures), 'ablations', 'everything'")
		scaleName = flag.String("scale", "small", "network scale: tiny|small|paper")
		seeds     = flag.Int("seeds", 0, "repeats per point (0 = scale default)")
		workers   = flag.Int("workers", 0, "shard workers per simulated network, >= 0 (0 = auto: shard runs across idle cores when the experiment grid is narrower than GOMAXPROCS, 1 = sequential stepping; results are identical at any count)")
		adaptive  = flag.Bool("adaptive", false, "adaptive measurement for steady-state points: MSER warmup truncation + batch-means CI stopping (5% relative half-width, at most 4x the scale's fixed window) + saturation short-circuit (statistically equivalent, much cheaper on converged points; transient traces keep fixed windows)")
		congSpec  = flag.String("congestion", "off", "congestion management for every simulation of the experiment: off | on")
		faultSpec = flag.String("faults", "off", "fault plan for every simulation of the experiment: off | linkdown:R,P@C | linkup:R,P@C | routerdown:R@C | routerup:R@C | random:F%@C[,seed] | retry:N[,base]; compose with '+'")
		outDir    = flag.String("out", "", "directory for CSV files (default: stdout)")
		cpuProf   = flag.String("cpuprofile", "", "write a CPU profile of the whole run to this file (go tool pprof)")
		memProf   = flag.String("memprofile", "", "write a heap profile to this file when the run ends")
	)
	flag.Parse()

	stopProf, err := prof.Start(*cpuProf, *memProf)
	die(err)
	defer func() { die(stopProf()) }()

	// SIGINT/SIGTERM cancel cooperatively: completed experiments' CSV
	// files stay on disk and the process exits with status 130.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	scale, err := cbar.ParseScale(*scaleName)
	die(err)

	cong, err := cbar.ParseCongestion(*congSpec)
	die(err)

	faults, err := cbar.ParseFaults(*faultSpec)
	die(err)

	var ids []string
	switch *figFlag {
	case "all":
		ids = cbar.FigureIDs()
	case "everything":
		ids = cbar.ExperimentIDs()
	case "ablations":
		for _, id := range cbar.ExperimentIDs() {
			if strings.HasPrefix(id, "abl-") {
				ids = append(ids, id)
			}
		}
	default:
		for _, id := range strings.Split(*figFlag, ",") {
			ids = append(ids, strings.TrimSpace(id))
		}
	}

	for _, id := range ids {
		title, err := cbar.ExperimentTitle(id)
		die(err)
		fmt.Fprintf(os.Stderr, "== %s: %s (scale %s)\n", id, title, scale)
		start := time.Now()
		opt := cbar.ExperimentOptions{
			Seeds: *seeds, Workers: *workers, Adaptive: *adaptive,
			Congestion: cong, Faults: faults, Ctx: ctx,
		}
		if *outDir == "" {
			dieOrInterrupt(cbar.RunExperimentOpts(id, scale, opt, os.Stdout), stopProf)
		} else {
			die(os.MkdirAll(*outDir, 0o755))
			path := filepath.Join(*outDir, fmt.Sprintf("%s_%s.csv", id, scale))
			f, err := os.Create(path)
			die(err)
			err = cbar.RunExperimentOpts(id, scale, opt, f)
			cerr := f.Close()
			dieOrInterrupt(err, stopProf)
			die(cerr)
			fmt.Fprintf(os.Stderr, "   wrote %s\n", path)
		}
		fmt.Fprintf(os.Stderr, "   done in %s\n", time.Since(start).Round(time.Millisecond))
	}
}

func die(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "figures:", err)
		os.Exit(1)
	}
}

// dieOrInterrupt is die with the conventional 130 exit for a run cut
// short by SIGINT/SIGTERM; everything written so far stays flushed, the
// profiles included (stopProf).
func dieOrInterrupt(err error, stopProf func() error) {
	if errors.Is(err, context.Canceled) {
		fmt.Fprintln(os.Stderr, "figures: interrupted, completed output flushed")
		die(stopProf())
		os.Exit(130)
	}
	die(err)
}
