package main

import (
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"time"

	"cbar"
)

// apiConfig builds the public configuration of one algorithm's points,
// exactly as a cbar user would: NewConfig plus the parsed feature specs.
func (w *workload) apiConfig(alg cbar.Algorithm, in inputs) (cbar.Config, cbar.Traffic, error) {
	c := cbar.NewConfig(w.scale, alg)
	c.Workers = w.workers
	if w.congestion {
		cg, err := cbar.ParseCongestion("on")
		if err != nil {
			return cbar.Config{}, cbar.Traffic{}, err
		}
		c.Congestion = cg
	}
	if w.faults != "" {
		f, err := cbar.ParseFaults(w.faults)
		if err != nil {
			return cbar.Config{}, cbar.Traffic{}, err
		}
		c.Faults = f
	}
	t, err := cbar.ParseTraffic(w.traffic)
	return c, t, err
}

// apiPass is one untraced pass over the workload through the public API.
type apiPass struct {
	results []cbar.SteadyResult
	wall    time.Duration
	mallocs uint64
	// peakRSSMB is the resident-set high-water mark of the pass, or of
	// the process so far when rssReset is false.
	peakRSSMB float64
	rssReset  bool
}

// resetPeakRSS collects garbage, returns the freed heap to the operating
// system and resets the kernel's resident-set high-water mark, so that
// the next peakRSSMB reading is the peak of what runs in between — the
// memory one pass needs from a clean process, not what earlier passes
// left behind. It reports whether the kernel took the reset; where it
// refuses, the mark stays cumulative over the process.
func resetPeakRSS() bool {
	debug.FreeOSMemory()
	return os.WriteFile("/proc/self/clear_refs", []byte("5"), 0) == nil
}

// runAPI runs every point of the workload through the calls users make:
// cbar.Sweep for a load grid, cbar.RunSteady for a single point, one
// seed per point, set-up included in the wall clock as users pay it on
// every run. Results come back in points() order.
func (w *workload) runAPI(in inputs) (apiPass, error) {
	opt := cbar.SteadyOptions{Warmup: w.warmup, Measure: w.measure, Seeds: 1}
	var p apiPass
	p.rssReset = resetPeakRSS()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	start := time.Now()
	for _, alg := range w.algs {
		c, t, err := w.apiConfig(alg, in)
		if err != nil {
			return p, err
		}
		if len(in.loads) == 1 {
			r, err := cbar.RunSteady(c, t, in.loads[0], opt)
			if err != nil {
				return p, fmt.Errorf("%s %v load %.4f: %w", w.name, alg, in.loads[0], err)
			}
			p.results = append(p.results, r)
			continue
		}
		rs, err := cbar.Sweep(c, t, in.loads, opt)
		if err != nil {
			return p, fmt.Errorf("%s %v sweep: %w", w.name, alg, err)
		}
		p.results = append(p.results, rs...)
	}
	p.wall = time.Since(start)
	runtime.ReadMemStats(&m1)
	p.mallocs = m1.Mallocs - m0.Mallocs
	var err error
	p.peakRSSMB, err = peakRSSMB()
	return p, err
}

// simTotals are the modelled (exactly repeatable) aggregates of one pass.
type simTotals struct {
	// accepted is the mean accepted load over the points,
	// phits/(node·cycle).
	accepted float64
	// latency is the delivered-weighted mean packet latency in cycles.
	latency float64
	// packetHops is Σ Delivered × AvgHops over the measured windows: the
	// number of simulated packet-hop events host time is divided by.
	packetHops float64
}

func totals(rs []cbar.SteadyResult) simTotals {
	var t simTotals
	var delivered float64
	for _, r := range rs {
		t.accepted += r.Accepted
		t.latency += r.AvgLatency * float64(r.Delivered)
		t.packetHops += r.AvgHops * float64(r.Delivered)
		delivered += float64(r.Delivered)
	}
	t.accepted /= float64(len(rs))
	if delivered > 0 {
		t.latency /= delivered
	}
	return t
}

// Closed-form bounds. PAPER.md holds no published numbers, so the model
// is unvalidated against the paper's figures; these are the checks that
// hold for any correct Dragonfly model regardless of calibration.

// acceptTolerance is the allowed |accepted - offered| below saturation:
// 1 % of the offered load plus four standard deviations of the Bernoulli
// sources' packet count over the measurement window (short windows make
// the source noise itself exceed 1 % at low load).
func (w *workload) acceptTolerance(c cbar.Config, load float64) float64 {
	trials := float64(c.Nodes()) * float64(w.measure)
	q := load / float64(c.PacketSize)
	sigma := math.Sqrt(trials*q*(1-q)) * float64(c.PacketSize) / trials
	return 0.01*load + 4*sigma
}

// uniformBounds: under UN at offered loads <= 0.5 the non-saturating
// mechanisms accept what is offered, and Base at the lowest load does not
// misroute, so its latency matches MIN's within 1 %.
func uniformBounds(w *workload, in inputs, rs []cbar.SteadyResult) map[int]string {
	bad := map[int]string{}
	var minLat, baseLat float64
	baseIdx := -1
	for i, pt := range w.points(in) {
		r := rs[i]
		switch pt.alg {
		case cbar.MIN, cbar.OLM, cbar.Base, cbar.ECtN:
			tol := w.acceptTolerance(cbar.NewConfig(w.scale, pt.alg), pt.load)
			if pt.load <= 0.5*(1+loadJitter) && math.Abs(r.Accepted-pt.load) > tol {
				bad[i] = fmt.Sprintf("accepted %.5f not within %.5f of offered %.5f below saturation", r.Accepted, tol, pt.load)
			}
		}
		if pt.load == in.loads[0] {
			switch pt.alg {
			case cbar.MIN:
				minLat = r.AvgLatency
			case cbar.Base:
				baseLat, baseIdx = r.AvgLatency, i
			}
		}
	}
	if baseIdx >= 0 && minLat > 0 && math.Abs(baseLat-minLat) > 0.01*minLat {
		bad[baseIdx] = fmt.Sprintf("Base latency %.2f not within 1%% of MIN's %.2f at the lowest UN load", baseLat, minLat)
	}
	return bad
}

// adversarialBounds: under ADV+1 all a*p nodes of a group share the one
// minimal global link, so MIN cannot accept more than 1/(a*p)
// phits/(node·cycle) (+1 % for packets already past the link when the
// window opens).
func adversarialBounds(w *workload, in inputs, rs []cbar.SteadyResult) map[int]string {
	bad := map[int]string{}
	for i, pt := range w.points(in) {
		if pt.alg != cbar.MIN {
			continue
		}
		c := cbar.NewConfig(w.scale, pt.alg)
		limit := 1.01 / float64(c.A*c.P)
		if rs[i].Accepted > limit {
			bad[i] = fmt.Sprintf("MIN accepted %.5f under ADV+1 exceeds 1/(a*p)+1%% = %.5f", rs[i].Accepted, limit)
		}
	}
	return bad
}

// peakRSSMB reads the process's resident-set high-water mark (VmHWM).
func peakRSSMB() (float64, error) {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		rest, ok := strings.CutPrefix(line, "VmHWM:")
		if !ok {
			continue
		}
		kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
		if err != nil {
			return 0, fmt.Errorf("parsing %q: %w", line, err)
		}
		return kb / 1024, nil
	}
	return 0, fmt.Errorf("no VmHWM line in /proc/self/status")
}
