package traffic

import (
	"fmt"
	"runtime"
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

// lookaheadCase is one source of TestLookaheadMatchesInlineDraws.
type lookaheadCase struct {
	name   string
	spec   SourceSpec
	load   float64
	end    int64 // cycles driven
	stopAt int64 // nonzero: every node falls silent here
}

// inlineTrace is the reference: a fresh Source, its First for every
// node and its Next drawn at each pop, the destination drawn from the
// injector's stream in (cycle, node) order.
func inlineTrace(t *testing.T, tc lookaheadCase, nodes, packetSize int, pat Pattern, seed uint64) []injection {
	t.Helper()
	src := tc.source(t, nodes, packetSize, seed)
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
		if !ok || top.t >= tc.end {
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
	inj.useSource(tc.source(t, net.Topo.Nodes, net.Cfg.PacketSize, seed))
	return inj
}

// lookaheadRun is what driveLookahead saw besides the trace.
type lookaheadRun struct {
	fills, onFrontier, crossed int
}

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
	for net.Now() < end {
		now := net.Now()
		if j, ok := net.ElideHorizon(end); ok {
			limit := j - 1
			frontier := windowEnd()
			if run.fills%2 == 1 && now < frontier && frontier-1 < limit {
				limit = frontier - 1
			}
			if a := inj.NextArrival(limit); a < j {
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
		if windowEnd() != lastEnd {
			run.fills++
			lastEnd = windowEnd()
		}
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
		refs[i] = inlineTrace(t, tc, net.Topo.Nodes, net.Cfg.PacketSize, mustUniform(t, net.Topo), seed)
	}
	for _, arm := range arms {
		for i, tc := range cases {
			t.Run(fmt.Sprintf("%s/procs%d/cores%d", tc.name, arm.procs, arm.cores), func(t *testing.T) {
				runtime.GOMAXPROCS(arm.procs)
				net := buildNet(t)
				var trace []injection
				pat := recPattern{mustUniform(t, net.Topo), net, &trace}
				inj := tc.injector(t, net, pat, seed)
				inj.DrawAhead(arm.cores)
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
	inj.DrawAhead(2)
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
