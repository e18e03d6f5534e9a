// cbar runs the Dragonfly simulations behind the paper's evaluation:
//
//	cbar point -routing base -traffic adv+1 -load 0.2        steady-state metrics (§IV)
//	cbar transient -routing ectn -traffic un -traffic2 adv+1 traced switch (Figs. 7-9)
//	cbar sweep -routing min,base,olm -traffic adv+1          load sweep CSV (Fig. 5)
//	cbar figures -fig fig5b -scale small -out data           Figs. 5-10 and §VI-A
//
// Every flag is defined once (cli.flags), and a subcommand registers
// only the flags it reads: `cbar SUBCOMMAND -help` lists them (-h is the
// global links per router, not help). A flag the subcommand does not
// read, or an argument left after the flags, exits 2. SIGINT/SIGTERM
// cancel a run with status 130: sweep flushes the rows it completed and
// figures keeps the CSV files it wrote.
package main

import (
	"bytes"
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"

	"cbar"
	"cbar/internal/prof"
	"cbar/internal/router"
	"cbar/internal/routing"
	"cbar/internal/sim"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	code := run(ctx, os.Args[1:], os.Stdout, os.Stderr)
	stop()
	os.Exit(code)
}

// run executes one command line (without the program name) and returns
// the process exit status: 0, 1 for a failed run, 2 for a command line
// it does not accept, 130 for a run cut short by ctx.
func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	c := &cli{ctx: ctx, stdout: stdout, stderr: stderr}
	if len(args) > 0 {
		c.sub = args[0]
	}
	do := map[string]func() error{"point": c.point, "transient": c.transient, "sweep": c.sweep, "figures": c.figures}[c.sub]
	if do == nil {
		fmt.Fprintf(stderr, "usage: cbar point|transient|sweep|figures [flags], not %q; cbar SUBCOMMAND -help lists its flags\n", c.sub)
		return 2
	}
	fs := c.flags()
	fs.SetOutput(stderr)
	if err := fs.Parse(args[1:]); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(stderr, "cbar %s: unexpected argument %q (lists are comma-separated)\n", c.sub, fs.Arg(0))
		return 2
	}
	err := c.setup()
	var stopProf func() error
	if err == nil {
		stopProf, err = prof.Start(c.cpuProf, c.memProf)
	}
	if err == nil {
		err = errors.Join(do(), stopProf())
	}
	switch {
	case errors.Is(err, context.Canceled):
		fmt.Fprintf(stderr, "cbar %s: interrupted, completed output flushed\n", c.sub)
		return 130
	case err != nil:
		fmt.Fprintf(stderr, "cbar %s: %v\n", c.sub, err)
		return 1
	}
	return 0
}

// cli is one command line: the flag values, and what setup parses them
// into.
type cli struct {
	sub            string
	ctx            context.Context
	stdout, stderr io.Writer

	scaleName, routing, trafficSpec, traffic2Spec, loadsCSV string
	congSpec, faultSpec, fig, out, cpuProf, memProf         string
	p, a, h, th, workers, seeds                             int
	load                                                    float64
	warmup, measure, post, bucket                           int64
	adaptive                                                bool

	scale       cbar.Scale
	cfgs        []cbar.Config // one per -routing mechanism
	traf, traf2 cbar.Traffic
	loads       []float64
	cong        cbar.Congestion
	faults      cbar.Faults
	steady      cbar.SteadyOptions
	trans       cbar.TransientOptions
	exp         cbar.ExperimentOptions
}

// flags defines every flag of every subcommand, each at one site, and
// registers on the subcommand's set the ones it reads.
func (c *cli) flags() *flag.FlagSet {
	fs := flag.NewFlagSet("cbar "+c.sub, flag.ContinueOnError)
	point, transient, sweep, figures := c.sub == "point", c.sub == "transient", c.sub == "sweep", c.sub == "figures"
	scale, mechanisms := "tiny", "base"
	if figures {
		scale = "small"
	}
	if sweep {
		mechanisms = "all"
	}
	fs.StringVar(&c.scaleName, "scale", scale, "network scale: "+sim.ScaleGrammar())
	fs.IntVar(&c.seeds, "seeds", 0, "independent repeats per point (0 = scale default)")
	fs.IntVar(&c.workers, "workers", 0, "shard workers per simulated network, >= 0 (0 = auto: shard runs across idle cores when the grid is narrower than GOMAXPROCS, 1 = sequential; results are identical at any count)")
	fs.StringVar(&c.congSpec, "congestion", "off", "congestion management: off | on; sweep adds marked,notified,throttled,shed columns")
	fs.StringVar(&c.faultSpec, "faults", "off", "fault plan: "+router.FaultGrammar()+"; sweep adds dropped,retried,unroutable columns")
	fs.StringVar(&c.cpuProf, "cpuprofile", "", "write a CPU profile of the run to this file (go tool pprof)")
	fs.StringVar(&c.memProf, "memprofile", "", "write a heap profile to this file when the run ends")
	if !figures { // the subcommands that build their networks from flags
		fs.IntVar(&c.p, "p", 0, "nodes per router (custom topology, in place of -scale)")
		fs.IntVar(&c.a, "a", 0, "routers per group (custom topology)")
		fs.IntVar(&c.h, "h", 0, "global links per router (custom topology)")
		fs.StringVar(&c.routing, "routing", mechanisms, "routing mechanism: "+routing.Grammar()+" (sweep: a comma-separated list, or 'all')")
		fs.StringVar(&c.trafficSpec, "traffic", "un", "traffic: "+sim.TrafficGrammar())
		fs.IntVar(&c.th, "th", 0, "override the Base/ECtN contention threshold, >= 0 (0 = scale default)")
		fs.Int64Var(&c.warmup, "warmup", 0, "warmup cycles (0 = scale default; with -adaptive, the cap of the detected warmup)")
	}
	if point || transient {
		fs.Float64Var(&c.load, "load", 0.2, "offered load in phits/(node*cycle)")
	}
	if point || sweep {
		fs.Int64Var(&c.measure, "measure", 0, "measurement cycles (0 = scale default; -adaptive measures at most 4x this)")
	}
	if sweep || figures {
		fs.BoolVar(&c.adaptive, "adaptive", false, "adaptive measurement of steady-state points: MSER warmup truncation + batch-means CI stopping (5% relative half-width) + saturation short-circuit instead of fixed windows; sweep adds CI/cost columns")
	}
	if transient {
		fs.StringVar(&c.traffic2Spec, "traffic2", "adv+1", "post-switch traffic, in -traffic's grammar")
		fs.Int64Var(&c.bucket, "bucket", 0, "trace bucket width in cycles (0 = scale default)")
		fs.Int64Var(&c.post, "post", 0, "trace length after the switch (0 = scale default)")
	}
	if sweep {
		fs.StringVar(&c.loadsCSV, "loads", "0.05,0.1,0.2,0.3,0.4,0.5,0.6,0.7,0.8,0.9,1.0", "comma-separated offered loads")
	}
	if figures {
		fs.StringVar(&c.fig, "fig", "all", "experiment ids ("+strings.Join(cbar.ExperimentIDs(), "|")+"), or 'all' (figures), 'ablations', 'everything'")
		fs.StringVar(&c.out, "out", "", "directory for CSV files (default: stdout)")
	}
	return fs
}

// setup parses and validates the registered flags, once: the scale,
// the switch specs, one network configuration per mechanism, the
// workloads, the load grid and the measurement options.
func (c *cli) setup() error {
	var errScale, errCong, errFaults error
	c.scale, errScale = cbar.ParseScale(c.scaleName)
	c.cong, errCong = cbar.ParseCongestion(c.congSpec)
	c.faults, errFaults = cbar.ParseFaults(c.faultSpec)
	if err := errors.Join(errScale, errCong, errFaults); err != nil {
		return err
	}
	c.steady = cbar.SteadyOptions{Warmup: c.warmup, Measure: c.measure, Seeds: c.seeds, Adaptive: c.adaptive, Ctx: c.ctx}
	c.trans = cbar.TransientOptions{Warmup: c.warmup, Post: c.post, Bucket: c.bucket, Seeds: c.seeds, Ctx: c.ctx}
	c.exp = cbar.ExperimentOptions{Seeds: c.seeds, Workers: c.workers, Adaptive: c.adaptive, Congestion: c.cong, Faults: c.faults, Ctx: c.ctx}
	if c.sub == "figures" {
		return nil // every experiment builds its own networks
	}
	algos := cbar.Algorithms()
	if c.routing != "all" {
		algos = nil
		for _, name := range strings.Split(c.routing, ",") {
			a, err := cbar.ParseAlgorithm(name)
			if err != nil {
				return err
			}
			algos = append(algos, a)
		}
	}
	if len(algos) != 1 && c.sub != "sweep" {
		return fmt.Errorf("-routing %s: %s runs one mechanism", c.routing, c.sub)
	}
	for _, a := range algos {
		cfg := cbar.NewConfig(c.scale, a)
		if c.custom() {
			cfg = cbar.NewConfigFor(c.p, c.a, c.h, a) // the network build rejects a size < 1
		}
		if c.th != 0 {
			cfg.BaseTh = c.th // a negative one is rejected when the network is built
		}
		cfg.Workers, cfg.Congestion, cfg.Faults = c.workers, c.cong, c.faults
		c.cfgs = append(c.cfgs, cfg)
	}
	var err error
	if c.traf, err = cbar.ParseTraffic(c.trafficSpec); err != nil {
		return err
	}
	if c.sub == "transient" {
		if c.traf2, err = cbar.ParseTraffic(c.traffic2Spec); err != nil {
			return err
		}
	}
	if c.sub == "sweep" {
		for _, f := range strings.Split(c.loadsCSV, ",") {
			v, err := strconv.ParseFloat(strings.TrimSpace(f), 64)
			if err != nil {
				return err
			}
			c.loads = append(c.loads, v)
		}
	}
	return nil
}

// custom reports whether -p, -a or -h replace the scale's topology.
func (c *cli) custom() bool { return c.p != 0 || c.a != 0 || c.h != 0 }

// point prints one steady-state measurement.
func (c *cli) point() error {
	cfg := c.cfgs[0]
	c.header(cfg)
	res, err := cbar.RunSteady(cfg, c.traf, c.load, c.steady)
	if err != nil {
		return err
	}
	w := c.stdout
	fmt.Fprintf(w, "avg_latency_cycles:   %.2f\n", res.AvgLatency)
	fmt.Fprintf(w, "p50_latency_cycles:   %d\n", res.P50)
	fmt.Fprintf(w, "p99_latency_cycles:   %d\n", res.P99)
	fmt.Fprintf(w, "accepted_load:        %.4f phits/(node*cycle)\n", res.Accepted)
	fmt.Fprintf(w, "misrouted_global:     %.2f%%\n", 100*res.MisroutedGlobal)
	fmt.Fprintf(w, "misrouted_local:      %.2f%%\n", 100*res.MisroutedLocal)
	fmt.Fprintf(w, "avg_hops:             %.2f\n", res.AvgHops)
	fmt.Fprintf(w, "util_local_links:     %.1f%%\n", 100*res.UtilLocal)
	fmt.Fprintf(w, "util_global_links:    %.1f%%\n", 100*res.UtilGlobal)
	fmt.Fprintf(w, "packets_measured:     %d (over %d seeds)\n", res.Delivered, res.Seeds)
	if c.cong.Enabled {
		fmt.Fprintf(w, "congestion_marked:    %d packets\n", res.Marked)
		fmt.Fprintf(w, "congestion_notified:  %d notifications\n", res.Notified)
		fmt.Fprintf(w, "congestion_throttled: %d injection attempts\n", res.Throttled)
		fmt.Fprintf(w, "congestion_shed:      %d packets\n", res.Shed)
	}
	if c.faults.Enabled() {
		fmt.Fprintf(w, "fault_dropped:        %d packets\n", res.Dropped)
		fmt.Fprintf(w, "fault_retried:        %d packets\n", res.Retried)
		fmt.Fprintf(w, "fault_unroutable:     %d packets\n", res.Unroutable)
	}
	return nil
}

// transient prints a traced response to the -traffic → -traffic2 switch.
func (c *cli) transient() error {
	cfg := c.cfgs[0]
	c.header(cfg)
	res, err := cbar.RunTransient(cfg, c.traf, c.traf2, c.load, c.trans)
	if err != nil {
		return err
	}
	fmt.Fprintf(c.stdout, "# switch %s -> %s at cycle 0\n", c.traf.Name(), c.traf2.Name())
	fmt.Fprintln(c.stdout, "cycle,avg_latency_cycles,misrouted_pct")
	for i := range res.Times {
		fmt.Fprintf(c.stdout, "%d,%.2f,%.2f\n", res.Times[i], res.Latency[i], res.MisroutedPct[i])
	}
	return nil
}

// header prints the network and workload of a point or transient run.
func (c *cli) header(cfg cbar.Config) {
	fmt.Fprintf(c.stdout, "# dragonfly p=%d a=%d h=%d: %d groups, %d routers, %d nodes\n",
		cfg.P, cfg.A, cfg.H, cfg.Groups(), cfg.Routers(), cfg.Nodes())
	fmt.Fprintf(c.stdout, "# routing=%s traffic=%s load=%.3f\n", cfg.Algorithm, c.traf.Name(), c.load)
}

// sweep prints the load sweep of every mechanism as CSV, one
// mechanism's rows as soon as its sweep completes. The fixed-mode
// header and rows are pinned byte for byte by testdata/golden; the
// optional columns only ever append.
func (c *cli) sweep() error {
	on := c.scale.String() + " scale"
	if c.custom() {
		on = fmt.Sprintf("p=%d a=%d h=%d", c.p, c.a, c.h)
	}
	fmt.Fprintf(c.stdout, "# %s traffic on %s\n", c.traf.Name(), on)
	header := "load,algo,avg_latency_cycles,p99_latency_cycles,accepted_phits_node_cycle,misrouted_global_frac,overflow_frac"
	if c.adaptive {
		header += ",ci_half_latency,measured_cycles,warmup_cycles,saturated,converged"
	}
	if c.cong.Enabled {
		header += ",marked,notified,throttled,shed"
	}
	if c.faults.Enabled() {
		header += ",dropped,retried,unroutable"
	}
	fmt.Fprintln(c.stdout, header)
	for _, cfg := range c.cfgs {
		rs, err := cbar.Sweep(cfg, c.traf, c.loads, c.steady)
		if err != nil {
			return err
		}
		for _, r := range rs {
			row := fmt.Sprintf("%.3f,%s,%.2f,%d,%.4f,%.4f,%.4f",
				r.Load, r.Algo, r.AvgLatency, r.P99, r.Accepted, r.MisroutedGlobal, r.OverflowFrac)
			if c.adaptive {
				row += fmt.Sprintf(",%.2f,%d,%d,%t,%t",
					r.CIHalfLatency, r.MeasuredCycles, r.WarmupCycles, r.Saturated, r.Converged)
			}
			if c.cong.Enabled {
				row += fmt.Sprintf(",%d,%d,%d,%d", r.Marked, r.Notified, r.Throttled, r.Shed)
			}
			if c.faults.Enabled() {
				row += fmt.Sprintf(",%d,%d,%d", r.Dropped, r.Retried, r.Unroutable)
			}
			fmt.Fprintln(c.stdout, row)
		}
	}
	return nil
}

// figures writes each selected experiment's CSV to stdout or, with
// -out, to DIR/ID_SCALE.csv once the experiment completes, with progress
// on stderr.
func (c *cli) figures() error {
	ids := strings.Split(c.fig, ",")
	switch c.fig {
	case "all":
		ids = cbar.FigureIDs()
	case "everything", "ablations":
		ids = cbar.ExperimentIDs()
	}
	if c.out != "" {
		if err := os.MkdirAll(c.out, 0o755); err != nil {
			return err
		}
	}
	for _, id := range ids {
		id = strings.TrimSpace(id)
		if c.fig == "ablations" && !strings.HasPrefix(id, "abl-") {
			continue
		}
		title, err := cbar.ExperimentTitle(id)
		if err != nil {
			return err
		}
		fmt.Fprintf(c.stderr, "== %s: %s (scale %s)\n", id, title, c.scale)
		start := time.Now()
		var csv bytes.Buffer
		w := io.Writer(&csv)
		if c.out == "" {
			w = c.stdout
		}
		if err := cbar.RunExperimentOpts(id, c.scale, c.exp, w); err != nil {
			return err
		}
		if c.out != "" {
			path := filepath.Join(c.out, fmt.Sprintf("%s_%s.csv", id, c.scale))
			if err := os.WriteFile(path, csv.Bytes(), 0o644); err != nil {
				return err
			}
			fmt.Fprintf(c.stderr, "   wrote %s\n", path)
		}
		fmt.Fprintf(c.stderr, "   done in %s\n", time.Since(start).Round(time.Millisecond))
	}
	return nil
}
