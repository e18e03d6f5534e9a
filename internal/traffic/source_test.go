package traffic

import (
	"fmt"
	"maps"
	"math"
	"runtime"
	"slices"
	"strings"
	"testing"

	"cbar/internal/rng"
	"cbar/internal/router"
	"cbar/internal/routing"
	"cbar/internal/topology"
)

// deliveryRecord is one delivered packet, for trace comparison.
type deliveryRecord struct {
	src, dst int32
	gen, now int64
}

// traceNet builds a fresh tiny network recording its delivery trace.
func traceNet(t *testing.T, seed uint64) (*router.Network, *[]deliveryRecord) {
	t.Helper()
	cfg := router.DefaultConfig(topology.Params{P: 4, A: 4, H: 2})
	n, err := router.Build(cfg, routing.MustNew(routing.Min, routing.DefaultOptions()), seed)
	if err != nil {
		t.Fatal(err)
	}
	var trace []deliveryRecord
	n.OnDeliver = func(p *router.Packet, now int64) {
		trace = append(trace, deliveryRecord{p.Src, p.Dst, p.GenTime, now})
	}
	return n, &trace
}

func sameTrace(t *testing.T, label string, a, b []deliveryRecord) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("%s: trace lengths %d vs %d", label, len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("%s: trace diverges at %d: %+v vs %+v", label, i, a[i], b[i])
		}
	}
	if len(a) == 0 {
		t.Fatalf("%s: empty traces prove nothing", label)
	}
}

// TestFastPathBitIdenticalToReference pins the homogeneous-Bernoulli
// injection path bit-for-bit against an inline copy of the pre-refactor
// injector loop (shared stream, geometric skip-sampling): the refactor
// that added the calendar path must not have perturbed it.
func TestFastPathBitIdenticalToReference(t *testing.T) {
	const (
		load   = 0.3
		seed   = 41
		cycles = 1500
	)
	netA, traceA := traceNet(t, 7)
	patA, err := NewUniform(netA.Topo)
	if err != nil {
		t.Fatal(err)
	}
	inj, err := NewInjector(netA, Constant(patA), load, seed)
	if err != nil {
		t.Fatal(err)
	}
	for c := 0; c < cycles; c++ {
		inj.Cycle()
		netA.Step()
	}

	// Reference: the pre-refactor Cycle body, inlined.
	netB, traceB := traceNet(t, 7)
	patB, err := NewUniform(netB.Topo)
	if err != nil {
		t.Fatal(err)
	}
	r := rng.New(seed, 0xC0FFEE)
	prob := load / float64(netB.Cfg.PacketSize)
	for c := 0; c < cycles; c++ {
		nodes := netB.Topo.Nodes
		for node := r.Geometric(prob); node < nodes; node += 1 + r.Geometric(prob) {
			netB.Inject(node, patB.Dest(node, r))
		}
		netB.Step()
	}
	sameTrace(t, "fast path vs pre-refactor reference", *traceA, *traceB)
}

// TestCalendarCycleExactVsNaiveScan drives the calendar injector and a
// naive every-node-every-cycle scan from identical per-node sources
// (same seeds, same RNG draw order) over identical networks: the
// delivery traces must match bit for bit, for both homogeneous
// Bernoulli and bursty on-off arrival processes. The calendar changes
// only *when* nodes are visited, never what they draw.
func TestCalendarCycleExactVsNaiveScan(t *testing.T) {
	specs := map[string]SourceSpec{
		"bernoulli": {},
		"onoff":     {Kind: OnOffArrivals, OnMean: 30, OffMean: 90},
		"weighted": {Weights: func() []float64 {
			w := make([]float64, 144)
			for i := range w {
				w[i] = float64(1 + i%5)
			}
			return w
		}()},
	}
	const (
		load   = 0.25
		seed   = 99
		cycles = 1200
	)
	for _, name := range slices.Sorted(maps.Keys(specs)) {
		spec := specs[name]
		t.Run(name, func(t *testing.T) {
			netA, traceA := traceNet(t, 3)
			patA, err := NewUniform(netA.Topo)
			if err != nil {
				t.Fatal(err)
			}
			inj, err := NewSourceInjector(netA, Constant(patA), load, seed, spec)
			if err != nil {
				t.Fatal(err)
			}
			for c := 0; c < cycles; c++ {
				inj.Cycle()
				netA.Step()
			}

			// Naive reference: the same source semantics, but visited by
			// an O(nodes) per-cycle scan holding each node's next time.
			netB, traceB := traceNet(t, 3)
			patB, err := NewUniform(netB.Topo)
			if err != nil {
				t.Fatal(err)
			}
			src, err := newSource(spec, netB.Topo.Nodes, netB.Cfg.PacketSize, load/float64(netB.Cfg.PacketSize), seed)
			if err != nil {
				t.Fatal(err)
			}
			r := rng.New(seed, 0xC0FFEE) // the injector's destination stream
			next := make([]int64, netB.Topo.Nodes)
			alive := make([]bool, netB.Topo.Nodes)
			for n := range next {
				next[n], alive[n] = src.First(n)
			}
			for c := int64(0); c < cycles; c++ {
				for n := 0; n < netB.Topo.Nodes; n++ {
					if !alive[n] || next[n] != c {
						continue
					}
					netB.Inject(n, patB.Dest(n, r))
					next[n], alive[n] = src.Next(n, c)
				}
				netB.Step()
			}
			sameTrace(t, name, *traceA, *traceB)
		})
	}
}

// naiveOnOffRate simulates the literal per-cycle Markov chain the
// on-off source is defined as — inject by the current phase's rate,
// then leave the phase with probability 1/mean — and returns the number
// of injections over the horizon. It shares nothing with the sampled
// implementation but the definition.
func naiveOnOffRate(nodes int, qOn, onMean, offMean float64, cycles int64, seed uint64) int64 {
	var injections int64
	for n := 0; n < nodes; n++ {
		r := rng.New(seed, uint64(n)+1<<32) // distinct streams from the sampled impl
		on := r.Bernoulli(onMean / (onMean + offMean))
		for c := int64(0); c < cycles; c++ {
			if on {
				if r.Bernoulli(qOn) {
					injections++
				}
				if r.Bernoulli(1 / onMean) {
					on = false
				}
			} else if r.Bernoulli(1 / offMean) {
				on = true
			}
		}
	}
	return injections
}

// TestOnOffStatisticallyMatched checks the sampled on-off source
// against the naive per-cycle chain on aggregate rate (both must hit
// the configured load) and against the Bernoulli process on dispersion
// (bursty arrivals must be visibly over-dispersed).
func TestOnOffStatisticallyMatched(t *testing.T) {
	const (
		nodes   = 144
		q       = 0.05 // packets/(node·cycle)
		onMean  = 25.0
		offMean = 75.0
		cycles  = 30000
		seed    = 5
	)
	spec := SourceSpec{Kind: OnOffArrivals, OnMean: onMean, OffMean: offMean}
	src, err := newSource(spec, nodes, 8, q, seed)
	if err != nil {
		t.Fatal(err)
	}
	const window = 50 // cycles per count window, ~ the ON-phase scale
	var sampled int64
	perWindow := make([]int64, cycles/window)
	for n := 0; n < nodes; n++ {
		c, ok := src.First(n)
		for ok && c < cycles {
			sampled++
			perWindow[c/window]++
			c, ok = src.Next(n, c)
		}
	}
	qOn := q * (onMean + offMean) / onMean
	naive := naiveOnOffRate(nodes, qOn, onMean, offMean, cycles, seed)

	mean := float64(nodes) * q * float64(cycles)
	// Burst correlation inflates the count variance well beyond
	// Poisson; a generous ±10% band still catches rate bugs (a duty
	// cycle or peak-rate error shifts the mean by 2x-4x).
	series := map[string]int64{"sampled": sampled, "naive": naive}
	for _, name := range slices.Sorted(maps.Keys(series)) {
		got := series[name]
		if math.Abs(float64(got)-mean) > 0.10*mean {
			t.Errorf("%s injections %d, want %.0f +-10%%", name, got, mean)
		}
	}

	// Dispersion: windowed injection counts of an on-off process are
	// over-dispersed relative to Bernoulli (whose window counts are
	// binomial, index ~1): the ON/OFF phase correlation inflates the
	// variance severalfold at windows near the phase scale.
	var m, v float64
	for _, c := range perWindow {
		m += float64(c)
	}
	m /= float64(len(perWindow))
	for _, c := range perWindow {
		v += (float64(c) - m) * (float64(c) - m)
	}
	v /= float64(len(perWindow))
	if d := v / m; d < 1.5 {
		t.Errorf("on-off dispersion index %.2f over %d-cycle windows, want > 1.5 (bursts missing)", d, window)
	}
}

// TestBernoulliSourceGapsAreGeometric χ²-tests the sampled per-node
// Bernoulli source's inter-injection gaps against the geometric law
// they must follow (gap g >= 1 with probability q(1-q)^(g-1)).
func TestBernoulliSourceGapsAreGeometric(t *testing.T) {
	const (
		nodes  = 64
		q      = 0.2
		cycles = 50000
		seed   = 11
	)
	src, err := newSource(SourceSpec{}, nodes, 8, q, seed)
	if err != nil {
		t.Fatal(err)
	}
	const maxGap = 30
	obs := make([]float64, maxGap+1) // gap 1..maxGap, tail pooled at [maxGap]
	var total float64
	for n := 0; n < nodes; n++ {
		prev, ok := src.First(n)
		if !ok {
			t.Fatal("node never injects")
		}
		for {
			c, ok := src.Next(n, prev)
			if !ok || c >= cycles {
				break
			}
			gap := c - prev
			if gap < 1 {
				t.Fatalf("gap %d < 1", gap)
			}
			if gap >= maxGap {
				obs[maxGap]++
			} else {
				obs[gap]++
			}
			total++
			prev = c
		}
	}
	var chi2 float64
	dof := 0
	for g := 1; g <= maxGap; g++ {
		var p float64
		if g < maxGap {
			p = q * math.Pow(1-q, float64(g-1))
		} else {
			p = math.Pow(1-q, float64(maxGap-1)) // tail mass
		}
		exp := p * total
		if exp < 5 {
			continue
		}
		d := obs[g] - exp
		chi2 += d * d / exp
		dof++
	}
	// 99.9% χ² quantile for ~29 dof is ~58; failures mean the sampler's
	// law is wrong, not an unlucky seed (the test is deterministic).
	if chi2 > 60 {
		t.Fatalf("χ² = %.1f over %d cells: gaps are not geometric(q=%.2f)", chi2, dof, q)
	}
}

// TestWeightedRatesMatch drives a skew-weighted Bernoulli source and
// checks each weight class's empirical rate.
func TestWeightedRatesMatch(t *testing.T) {
	const (
		nodes  = 100
		q      = 0.05
		cycles = 40000
	)
	w := make([]float64, nodes)
	for i := range w {
		if i < 10 {
			w[i] = 5 // 10 hot nodes at 5x the cold rate
		} else {
			w[i] = 0.5556 // ~ (1-0.5)*100/90: cold share
		}
	}
	src, err := newSource(SourceSpec{Weights: w}, nodes, 8, q, 3)
	if err != nil {
		t.Fatal(err)
	}
	counts := make([]float64, nodes)
	for n := 0; n < nodes; n++ {
		c, ok := src.First(n)
		for ok && c < cycles {
			counts[n]++
			c, ok = src.Next(n, c)
		}
	}
	// normalizedWeights rescales to mean 1; compute the expected rates
	// the same way.
	sum := 0.0
	for _, v := range w {
		sum += v
	}
	for n := 0; n < nodes; n++ {
		want := q * w[n] * float64(nodes) / sum * cycles
		if math.Abs(counts[n]-want) > 5*math.Sqrt(want) {
			t.Errorf("node %d: %v injections, want %.0f +-5sigma", n, counts[n], want)
		}
	}
}

// TestSourceInjectorValidation exercises the construction-time errors of
// the stateful path.
func TestSourceInjectorValidation(t *testing.T) {
	n := buildNet(t)
	sched := Constant(mustUniform(t, n.Topo))
	cases := map[string]SourceSpec{
		"bad on mean":      {Kind: OnOffArrivals, OnMean: 0, OffMean: 10},
		"negative off":     {Kind: OnOffArrivals, OnMean: 10, OffMean: -1},
		"peak below load":  {Kind: OnOffArrivals, OnMean: 10, OffMean: 10, PeakLoad: 0.1},
		"peak rate over 1": {Kind: OnOffArrivals, OnMean: 10, OffMean: 1000},
		// An infinite phase mean would walk silent phases forever, and a
		// negative or NaN peak would be ignored (`peakProb > 0`), the spec
		// running as if it had none.
		"infinite on mean":  {Kind: OnOffArrivals, OnMean: math.Inf(1), OffMean: 200},
		"infinite off mean": {Kind: OnOffArrivals, OnMean: 50, OffMean: math.Inf(1)},
		"negative peak":     {Kind: OnOffArrivals, OnMean: 50, OffMean: 200, PeakLoad: -1},
		"NaN peak":          {Kind: OnOffArrivals, OnMean: 50, OffMean: 200, PeakLoad: math.NaN()},
		"short weights":     {Weights: []float64{1, 2, 3}},
		"negative weight":   {Weights: negWeights(n.Topo.Nodes)},
		"zero weights":      {Weights: make([]float64, n.Topo.Nodes)},
		"unknown kind":      {Kind: SourceKind(9)},
	}
	for _, name := range slices.Sorted(maps.Keys(cases)) {
		spec := cases[name]
		load := 0.5
		if _, err := NewSourceInjector(n, sched, load, 1, spec); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	// Happy path sanity: the same constructor accepts a sound spec.
	if _, err := NewSourceInjector(n, sched, 0.3, 1, SourceSpec{Kind: OnOffArrivals, OnMean: 20, OffMean: 60}); err != nil {
		t.Fatalf("sound spec rejected: %v", err)
	}
}

func negWeights(n int) []float64 {
	w := make([]float64, n)
	for i := range w {
		w[i] = 1
	}
	w[3] = -1
	return w
}

// TestSourceInjectorZeroLoad: a zero-load stateful injector never
// generates, at O(1) per cycle (the calendar stays empty).
func TestSourceInjectorZeroLoad(t *testing.T) {
	n := buildNet(t)
	inj, err := NewSourceInjector(n, Constant(mustUniform(t, n.Topo)), 0,
		7, SourceSpec{Kind: OnOffArrivals, OnMean: 10, OffMean: 10})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 200; i++ {
		inj.Cycle()
		n.Step()
	}
	if n.NumGenerated != 0 {
		t.Fatalf("%d packets at zero load", n.NumGenerated)
	}
}

// TestOnOffPeakDutyCycle: with a fixed peak, ON phases inject at the
// peak rate and the duty cycle adapts to the aggregate load.
func TestOnOffPeakDutyCycle(t *testing.T) {
	const (
		nodes  = 50
		q      = 0.02
		peakQ  = 0.10 // packets/(node·cycle): duty must settle at 20%
		cycles = 60000
	)
	// PeakLoad is in phits; newSource divides by packet size 8.
	src, err := newSource(SourceSpec{Kind: OnOffArrivals, OnMean: 40, PeakLoad: peakQ * 8}, nodes, 8, q, 21)
	if err != nil {
		t.Fatal(err)
	}
	var count float64
	for n := 0; n < nodes; n++ {
		c, ok := src.First(n)
		for ok && c < cycles {
			count++
			c, ok = src.Next(n, c)
		}
	}
	want := q * nodes * cycles
	if math.Abs(count-want) > 0.12*want {
		t.Fatalf("peak-pinned on-off injected %v, want %.0f +-12%%", count, want)
	}
}

// TestOnOffRejectsUnwalkableSpec: a rate so low that a packet expects
// more silent ON phases than a sixteenth of the walk cap is refused at
// construction, naming the node — it used to build, and drop nodes from
// the calendar without a word once their walk ran out. For
// un+burst:50,150 at packet size 8 the line is near 6e-7 load. Zero load
// and zero-weight nodes walk nothing and stay accepted.
func TestOnOffRejectsUnwalkableSpec(t *testing.T) {
	const nodes, packetSize = 16, 8
	spec := SourceSpec{Kind: OnOffArrivals, OnMean: 50, OffMean: 150}
	for _, tc := range []struct {
		load float64
		ok   bool
	}{{0, true}, {4e-8, false}, {5e-7, false}, {7e-7, true}, {1e-5, true}} {
		_, err := newSource(spec, nodes, packetSize, tc.load/packetSize, 1)
		if (err == nil) != tc.ok {
			t.Errorf("load %g: err = %v, want accepted = %v", tc.load, err, tc.ok)
		}
		if err != nil && !strings.Contains(err.Error(), "node 0") {
			t.Errorf("load %g: error does not name the node: %v", tc.load, err)
		}
	}
	// One nearly-silent node among loaded ones is the one named; a node
	// of weight zero never injects and is skipped.
	weighted := spec
	weighted.Weights = make([]float64, nodes)
	for i := range weighted.Weights {
		weighted.Weights[i] = 1
	}
	weighted.Weights[3] = 0
	if _, err := newSource(weighted, nodes, packetSize, 0.01, 1); err != nil {
		t.Errorf("zero-weight node rejected: %v", err)
	}
	weighted.Weights[5] = 1e-6
	if _, err := newSource(weighted, nodes, packetSize, 0.01, 1); err == nil || !strings.Contains(err.Error(), "node 5") {
		t.Errorf("nearly-silent node 5: err = %v", err)
	}
	// Always-on (no OFF phases) is the Bernoulli source: nothing to walk.
	if _, err := newSource(SourceSpec{Kind: OnOffArrivals, OnMean: 50}, nodes, packetSize, 1e-9, 1); err != nil {
		t.Errorf("always-on source rejected: %v", err)
	}
}

// TestOnOffRejectsSubCycleOffMean: a phase lasts at least one cycle, so
// an OFF mean in (0, 1) would run at duty onMean/(onMean+1), not the one
// the ON rate was derived from, and offer less load than asked
// (burst:2,0.5 delivered 0.0417 packets per node-cycle of 0.05). Such a
// mean is refused whether given or derived from a peak just above the
// aggregate, naming the spec; 0 (always on) and >= 1 stay accepted.
func TestOnOffRejectsSubCycleOffMean(t *testing.T) {
	const nodes, packetSize, q = 16, 8, 0.05
	for _, tc := range []struct {
		spec SourceSpec
		ok   bool
	}{
		{SourceSpec{Kind: OnOffArrivals, OnMean: 2, OffMean: 0.5}, false},
		{SourceSpec{Kind: OnOffArrivals, OnMean: 50, OffMean: 0.999}, false},
		{SourceSpec{Kind: OnOffArrivals, OnMean: 5, PeakLoad: 1.001 * q * packetSize}, false}, // OFF mean 0.005
		{SourceSpec{Kind: OnOffArrivals, OnMean: 2, OffMean: 1}, true},
		{SourceSpec{Kind: OnOffArrivals, OnMean: 2, OffMean: 0}, true},
		{SourceSpec{Kind: OnOffArrivals, OnMean: 5, PeakLoad: q * packetSize}, true},     // always on
		{SourceSpec{Kind: OnOffArrivals, OnMean: 5, PeakLoad: 2 * q * packetSize}, true}, // OFF mean 5
	} {
		_, err := newSource(tc.spec, nodes, packetSize, q, 1)
		if (err == nil) != tc.ok {
			t.Errorf("%+v: err = %v, want accepted = %v", tc.spec, err, tc.ok)
		}
		if want := fmt.Sprintf("on=%v off=%v", tc.spec.OnMean, tc.spec.OffMean); err != nil && !strings.Contains(err.Error(), want) {
			t.Errorf("%+v: error does not name the spec (%q): %v", tc.spec, want, err)
		}
	}
}

// BenchmarkSourceLookahead is one window fill of the repo benchmark's
// idle point, all of Small's 1056 nodes under un+burst:50,150 at 1e-5
// load: about one arrival per node, drawn in 64-node chunks by the
// caller and GOMAXPROCS-1 helpers (run it at -cpu 1,2). It reports the
// time per arrival drawn. "window" is a fill in the run's steady state;
// "first-fill" is a fresh injector's first window, which also draws
// every node's First.
func BenchmarkSourceLookahead(b *testing.B) {
	const nodes, packetSize, load = 1056, 8, 1e-5
	newLA := func(b *testing.B) *lookahead {
		src, err := newSource(SourceSpec{Kind: OnOffArrivals, OnMean: 50, OffMean: 150}, nodes, packetSize, load/packetSize, 1)
		if err != nil {
			b.Fatal(err)
		}
		return newLookahead(src, nodes, load/packetSize, runtime.GOMAXPROCS(0)-1, never)
	}
	b.Run("window", func(b *testing.B) {
		var cal calendar
		la := newLA(b)
		la.advance(&cal, 0)
		arrivals := 0
		b.ResetTimer()
		for range b.N {
			cal.heap = cal.heap[:0]
			la.advance(&cal, la.min)
			arrivals += len(cal.heap)
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(arrivals), "ns/arrival")
	})
	b.Run("first-fill", func(b *testing.B) {
		var cal calendar
		arrivals := 0
		for range b.N {
			b.StopTimer()
			la := newLA(b)
			cal.heap = cal.heap[:0]
			b.StartTimer()
			la.advance(&cal, 0)
			arrivals += len(cal.heap)
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(arrivals), "ns/arrival")
	})
}
