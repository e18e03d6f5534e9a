package traffic

import (
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"

	"cbar/internal/rng"
	"cbar/internal/router"
	"cbar/internal/routing"
	"cbar/internal/topology"
)

// injection is one destination draw: src injects toward dst at cycle.
type injection struct {
	cycle    int64
	src, dst int
}

// recPattern records every destination the injector draws, with the
// cycle it draws it at.
type recPattern struct {
	Pattern
	net   *router.Network
	trace *[]injection
}

func (p recPattern) Dest(src int, r *rng.PCG) int {
	d := p.Pattern.Dest(src, r)
	*p.trace = append(*p.trace, injection{p.net.Now(), src, d})
	return d
}

// stopAt ends every node's arrivals at a cycle: a Source whose nodes all
// fall silent.
type stopAt struct {
	Source
	at int64
}

func (s stopAt) First(n int) (int64, bool) { return s.cut(s.Source.First(n)) }

func (s stopAt) Next(n int, t int64) (int64, bool) { return s.cut(s.Source.Next(n, t)) }

func (s stopAt) cut(t int64, ok bool) (int64, bool) { return t, ok && t < s.at }

// counted counts a Source's draws. A fill draws on several goroutines, so
// the counts are atomic.
type counted struct {
	Source
	draws *atomic.Int64 // First and Next calls
}

func (s counted) First(n int) (int64, bool) {
	s.draws.Add(1)
	return s.Source.First(n)
}

func (s counted) Next(n int, t int64) (int64, bool) {
	s.draws.Add(1)
	return s.Source.Next(n, t)
}

// lookaheadCase is one source of TestLookaheadMatchesInlineDraws.
type lookaheadCase struct {
	name   string
	spec   SourceSpec
	load   float64
	end    int64 // cycles driven
	stopAt int64 // nonzero: every node falls silent here
}

// inlineTrace is the reference: a fresh Source, its First for every
// node and its Next drawn at each pop before end, the destination drawn
// from the injector's stream in (cycle, node) order.
func inlineTrace(src Source, nodes int, end int64, pat Pattern, seed uint64) []injection {
	r := rng.New(seed, 0xC0FFEE)
	var cal calendar
	for n := 0; n < nodes; n++ {
		if c, ok := src.First(n); ok {
			cal.push(calEntry{t: c, node: int32(n)})
		}
	}
	var out []injection
	for {
		top, ok := cal.peek()
		if !ok || top.t >= end {
			return out
		}
		cal.pop()
		n := int(top.node)
		out = append(out, injection{top.t, n, pat.Dest(n, r)})
		if c, ok := src.Next(n, top.t); ok {
			cal.push(calEntry{t: c, node: top.node})
		}
	}
}

func (tc lookaheadCase) source(t *testing.T, nodes, packetSize int, seed uint64) Source {
	t.Helper()
	src, err := newSource(tc.spec, nodes, packetSize, tc.load/float64(packetSize), seed)
	if err != nil {
		t.Fatal(err)
	}
	if tc.stopAt > 0 {
		return stopAt{src, tc.stopAt}
	}
	return src
}

// injector is what NewSourceInjector builds for the case; a stopped
// case's source is the spec's wrapped in stopAt.
func (tc lookaheadCase) injector(t *testing.T, net *router.Network, pat Pattern, seed uint64) *Injector {
	t.Helper()
	if tc.stopAt == 0 {
		inj, err := NewSourceInjector(net, Constant(pat), tc.load, seed, tc.spec)
		if err != nil {
			t.Fatal(err)
		}
		return inj
	}
	inj, err := NewInjector(net, Constant(pat), tc.load, seed)
	if err != nil {
		t.Fatal(err)
	}
	inj.src = tc.source(t, net.Topo.Nodes, net.Cfg.PacketSize, seed)
	return inj
}

// lookaheadRun is what driveLookahead saw besides the trace.
type lookaheadRun struct {
	fills, onFrontier, crossed int
	windows                    []window // every fill, in order
}

// window is one fill's span of cycles, [from, end).
type window struct{ from, end int64 }

// driveLookahead runs inj to end the way sim's cycle loop does, quiet
// spans elided, except that in every other window the jumps are capped
// one cycle short of the window end, so one lands exactly on it; in the
// others a jump past the last arrival crosses it. An injector without a
// lookahead is driven plainly.
func driveLookahead(net *router.Network, inj *Injector, end int64) lookaheadRun {
	var run lookaheadRun
	windowEnd := func() int64 {
		if inj.la == nil {
			return -1
		}
		return inj.la.end
	}
	lastEnd := windowEnd()
	// A fill happens in NextArrival or in Cycle, at the cycle asked.
	noteFill := func(now int64) {
		if windowEnd() != lastEnd {
			run.fills++
			lastEnd = windowEnd()
			run.windows = append(run.windows, window{now, lastEnd})
		}
	}
	for net.Now() < end {
		now := net.Now()
		if j, ok := net.ElideHorizon(end); ok {
			limit := j - 1
			frontier := windowEnd()
			if run.fills%2 == 1 && now < frontier && frontier-1 < limit {
				limit = frontier - 1
			}
			a := inj.NextArrival(limit)
			noteFill(now)
			if a < j {
				j = a
			}
			if j > now {
				switch {
				case j == frontier:
					run.onFrontier++
				case now < frontier && j > frontier:
					run.crossed++
				}
				net.ElideTo(j)
				continue
			}
		}
		inj.Cycle()
		noteFill(now)
		net.Step()
	}
	return run
}

// TestLookaheadMatchesInlineDraws pins the unthrottled calendar's
// lookahead to the inline draws it replaces: whatever the core count and
// wherever elided jumps land against the window ends, the (cycle, src,
// dst) trace of every injection equals a fresh Source drawn at each pop.
// Each arm runs at a GOMAXPROCS and hands DrawAhead a core count; one
// core draws inline, and three cores on one GOMAXPROCS interleave the
// helpers on one thread.
func TestLookaheadMatchesInlineDraws(t *testing.T) {
	weights := make([]float64, 144)
	for i := range weights {
		weights[i] = float64(i % 4) // every fourth node never injects
	}
	cases := []lookaheadCase{
		{name: "onoff-idle", spec: SourceSpec{Kind: OnOffArrivals, OnMean: 50, OffMean: 150}, load: 1e-5, end: 1_700_000},
		{name: "onoff-loaded", spec: SourceSpec{Kind: OnOffArrivals, OnMean: 50, OffMean: 150}, load: 0.3, end: 600},
		{name: "weighted-bernoulli", spec: SourceSpec{Weights: weights}, load: 0.2, end: 800},
		{name: "stopped", spec: SourceSpec{Kind: OnOffArrivals, OnMean: 20, OffMean: 60}, load: 0.04, end: 3000, stopAt: 1200},
	}
	arms := []struct{ procs, cores int }{{1, 1}, {1, 3}, {2, 2}, {4, 4}}
	const seed = 5
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	net := buildNet(t)
	refs := make([][]injection, len(cases))
	for i, tc := range cases {
		src := tc.source(t, net.Topo.Nodes, net.Cfg.PacketSize, seed)
		refs[i] = inlineTrace(src, net.Topo.Nodes, tc.end, mustUniform(t, net.Topo), seed)
	}
	for _, arm := range arms {
		for i, tc := range cases {
			t.Run(fmt.Sprintf("%s/procs%d/cores%d", tc.name, arm.procs, arm.cores), func(t *testing.T) {
				runtime.GOMAXPROCS(arm.procs)
				net := buildNet(t)
				var trace []injection
				pat := recPattern{mustUniform(t, net.Topo), net, &trace}
				inj := tc.injector(t, net, pat, seed)
				inj.DrawAhead(arm.cores, 0)
				if arm.cores == 1 {
					if inj.la != nil {
						t.Fatal("a lookahead on one core")
					}
				} else if want := min(arm.cores, 3) - 1; inj.la.helpers != want {
					t.Fatalf("%d helpers on %d cores over 3 chunks, want %d", inj.la.helpers, arm.cores, want)
				}
				run := driveLookahead(net, inj, tc.end)

				want := refs[i]
				if len(want) < 100 {
					t.Fatalf("reference drew %d injections; the case proves little", len(want))
				}
				if len(trace) != len(want) {
					t.Fatalf("%d injections, reference %d", len(trace), len(want))
				}
				for i := range want {
					if trace[i] != want[i] {
						t.Fatalf("injection %d is %+v, reference %+v", i, trace[i], want[i])
					}
				}
				if inj.la != nil && run.fills < 3 {
					t.Fatalf("%d window fills; the case crosses too few frontiers", run.fills)
				}
				if inj.la != nil && tc.name == "onoff-idle" && (run.onFrontier == 0 || run.crossed == 0) {
					t.Fatalf("jumps landed on a window end %d times and crossed one %d times; want both",
						run.onFrontier, run.crossed)
				}
				if tc.stopAt > 0 {
					const far = int64(1) << 60
					if got := inj.NextArrival(far); got != far+1 {
						t.Fatalf("NextArrival(%d) with every node stopped = %d, want %d", far, got, far+1)
					}
					if inj.la == nil {
						return
					}
					if inj.la.min != never || len(inj.cal.heap) != 0 {
						t.Fatalf("after the last arrival: next pending %d, %d on the calendar", inj.la.min, len(inj.cal.heap))
					}
					fills := inj.la.end
					inj.Cycle()
					if inj.la.end != fills {
						t.Fatal("a Cycle with every node stopped filled a window")
					}
				}
			})
		}
	}
}

// TestLookaheadFirstFillAndEnd pins the lookahead's two ends. A fresh
// injector draws nothing until it is first asked: NextArrival before any
// Cycle returns the first arrival, inline or drawn ahead, and a drawn
// ahead injector's first window draws every node's First. A window that
// would cross the run's end stops there, so a run driven to its end
// makes exactly the inline path's First and Next calls, not one past
// them; a caller that drives on past the end gets full windows again.
// Each end runs in the arms of TestLookaheadMatchesInlineDraws.
func TestLookaheadFirstFillAndEnd(t *testing.T) {
	tc := lookaheadCase{spec: SourceSpec{Kind: OnOffArrivals, OnMean: 50, OffMean: 150}, load: 1e-4}
	const seed = 9
	arms := []struct{ procs, cores int }{{1, 1}, {1, 3}, {2, 2}, {4, 4}}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	net := buildNet(t)
	nodes, packetSize := net.Topo.Nodes, net.Cfg.PacketSize

	firstArrival := int64(never)
	src := tc.source(t, nodes, packetSize, seed)
	for n := range nodes {
		if c, ok := src.First(n); ok {
			firstArrival = min(firstArrival, c)
		}
	}
	// An end on a window boundary: where a run with no end known
	// finishes its third window.
	probe := tc.injector(t, net, mustUniform(t, net.Topo), seed)
	probe.DrawAhead(2, 0)
	if probe.la == nil {
		t.Fatal("no lookahead on two cores")
	}
	span := probe.la.span
	probe.NextArrival(0)
	probeRun := driveLookahead(net, probe, 6*span)
	if len(probeRun.windows) < 2 {
		t.Fatalf("%d windows after the first in %d cycles", len(probeRun.windows), 6*span)
	}
	boundary := probeRun.windows[1].end

	ends := []struct {
		name        string
		stop, drive int64 // the end DrawAhead is told, the cycle the run is driven to
		minRef      int   // injections the reference must make for the case to prove anything
	}{
		{"on-boundary", boundary, boundary, 300},
		{"in-first-window", span / 2, span / 2, 20},
		{"before-first-arrival", firstArrival, firstArrival, 0},
		{"driven-past", span / 2, span/2 + 3*span, 300},
	}
	for _, e := range ends {
		var refDraws atomic.Int64
		ref := inlineTrace(counted{tc.source(t, nodes, packetSize, seed), &refDraws}, nodes, e.drive, mustUniform(t, net.Topo), seed)
		if len(ref) < e.minRef || (e.minRef == 0) != (len(ref) == 0) {
			t.Fatalf("%s: the reference made %d injections", e.name, len(ref))
		}
		for _, arm := range arms {
			t.Run(fmt.Sprintf("%s/procs%d/cores%d", e.name, arm.procs, arm.cores), func(t *testing.T) {
				runtime.GOMAXPROCS(arm.procs)
				net := buildNet(t)
				var trace []injection
				inj := tc.injector(t, net, recPattern{mustUniform(t, net.Topo), net, &trace}, seed)
				var draws atomic.Int64
				inj.src = counted{inj.src, &draws}
				inj.DrawAhead(arm.cores, e.stop)
				if (inj.la != nil) != (arm.cores > 1) {
					t.Fatalf("lookahead installed: %v on %d cores", inj.la != nil, arm.cores)
				}
				if n := draws.Load(); n != 0 {
					t.Fatalf("construction and DrawAhead made %d draws", n)
				}
				if got, want := inj.NextArrival(e.drive-1), min(firstArrival, e.drive); got != want {
					t.Fatalf("NextArrival before the first Cycle = %d, want %d", got, want)
				}
				if n := draws.Load(); n < int64(nodes) {
					t.Fatalf("the first NextArrival made %d draws, fewer than the %d nodes' First", n, nodes)
				}
				windows := []window{}
				if inj.la != nil {
					windows = append(windows, window{0, inj.la.end})
				}
				run := driveLookahead(net, inj, e.drive)
				windows = append(windows, run.windows...)

				if len(trace) != len(ref) {
					t.Fatalf("%d injections, reference %d", len(trace), len(ref))
				}
				for i := range ref {
					if trace[i] != ref[i] {
						t.Fatalf("injection %d is %+v, reference %+v", i, trace[i], ref[i])
					}
				}
				if e.drive == e.stop && draws.Load() != refDraws.Load() {
					t.Fatalf("%d First and Next calls, inline %d", draws.Load(), refDraws.Load())
				}
				resumed := 0
				for _, w := range windows {
					want := w.from + span
					if w.from < e.stop {
						want = min(want, e.stop)
					} else {
						resumed++
					}
					if w.end != want {
						t.Fatalf("window [%d, %d), want it to end at %d (span %d, run end %d)", w.from, w.end, want, span, e.stop)
					}
				}
				if inj.la != nil && (resumed > 0) != (e.drive > e.stop) {
					t.Fatalf("%d windows past the run end %d, driven to %d", resumed, e.stop, e.drive)
				}
			})
		}
	}
}

// idleBurstyInjector is a tiny network under the repo benchmark's idle
// bursty source, un+burst:50,150 at 1e-5 load, drawing ahead on two
// cores.
func idleBurstyInjector(t testing.TB) (*router.Network, *Injector) {
	cfg := router.DefaultConfig(topology.Params{P: 4, A: 4, H: 2})
	net, err := router.Build(cfg, routing.MustNew(routing.Base, routing.DefaultOptions()), 1)
	if err != nil {
		t.Fatal(err)
	}
	pat, err := NewUniform(net.Topo)
	if err != nil {
		t.Fatal(err)
	}
	inj, err := NewSourceInjector(net, Constant(pat), 1e-5, 3, SourceSpec{Kind: OnOffArrivals, OnMean: 50, OffMean: 150})
	if err != nil {
		t.Fatal(err)
	}
	inj.DrawAhead(2, 0)
	return net, inj
}

// TestLookaheadCycleAllocs: a warmed idle bursty injector's Cycle and
// NextArrival allocate nothing, window fills included.
func TestLookaheadCycleAllocs(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	net, inj := idleBurstyInjector(t)
	advance := func() {
		// One arrival: jump to it, inject, step.
		if j, ok := net.ElideHorizon(net.Now() + 1<<22); ok {
			if a := inj.NextArrival(j - 1); a < j {
				j = a
			}
			if j > net.Now() {
				net.ElideTo(j)
				return
			}
		}
		inj.Cycle()
		net.Step()
	}
	startFills := inj.la.end
	for range 6000 {
		advance()
	}
	if inj.la.end == startFills {
		t.Fatal("warm-up filled no window")
	}
	warm := inj.la.end
	if allocs := testing.AllocsPerRun(6000, advance); allocs != 0 {
		t.Fatalf("%v allocations per advance", allocs)
	}
	if inj.la.end == warm {
		t.Fatal("the measured advances filled no window")
	}
}
