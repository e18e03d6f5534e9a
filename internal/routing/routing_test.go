package routing

import (
	"maps"
	"slices"
	"strings"
	"testing"

	"cbar/internal/router"
	"cbar/internal/topology"
)

// Test topology: p=4,a=4,h=2 -> 9 groups, 36 routers, 144 nodes. Chosen
// over the smallest possible network because Base-style injection
// misrouting needs th <~ p (§VI-A), so p must leave headroom for a
// meaningful threshold.
func testParams() topology.Params { return topology.Params{P: 4, A: 4, H: 2} }

// testOptions scales Table I thresholds to the small router radix
// following the §VI-A analysis (th between the saturated-counter mean and
// the injection-port count).
func testOptions() Options {
	o := DefaultOptions()
	o.BaseTh = 3
	o.HybridTh = 4
	o.CombinedTh = 4
	return o
}

func build(t *testing.T, a Algo, o Options, seed uint64) *router.Network {
	t.Helper()
	alg, err := New(a, o)
	if err != nil {
		t.Fatal(err)
	}
	return buildAlg(t, a, alg, seed)
}

// buildAlg builds the test fabric, sized for mechanism a, around alg.
func buildAlg(t *testing.T, a Algo, alg router.Algorithm, seed uint64) *router.Network {
	t.Helper()
	cfg := router.DefaultConfig(testParams())
	cfg.VCsLocal = RequiredLocalVCs(a)
	cfg.VCsInjection = RequiredLocalVCs(a)
	n, err := router.Build(cfg, alg, seed)
	if err != nil {
		t.Fatal(err)
	}
	return n
}

// xorshift for test traffic, independent of internal/rng.
type testRand struct{ s uint64 }

func (r *testRand) next() uint64 {
	r.s ^= r.s << 13
	r.s ^= r.s >> 7
	r.s ^= r.s << 17
	return r.s
}

func (r *testRand) intn(n int) int { return int(r.next() % uint64(n)) }

func (r *testRand) hit(pct int) bool { return r.intn(100) < pct }

// driveUniform injects ~loadPct% packet-rate uniform traffic for cycles.
func driveUniform(n *router.Network, rnd *testRand, cycles, loadPct int) {
	for c := 0; c < cycles; c++ {
		for node := 0; node < n.Topo.Nodes; node++ {
			if rnd.hit(loadPct) {
				dst := rnd.intn(n.Topo.Nodes)
				if dst != node {
					n.Inject(node, dst)
				}
			}
		}
		n.Step()
	}
}

// driveAdversarial injects ADV+offset traffic: every node sends to a
// random node in the group `offset` positions away.
func driveAdversarial(n *router.Network, rnd *testRand, cycles, loadPct, offset int) {
	t := n.Topo
	nodesPerGroup := t.A * t.P
	for c := 0; c < cycles; c++ {
		for node := 0; node < t.Nodes; node++ {
			if rnd.hit(loadPct) {
				dg := (t.GroupOfNode(node) + offset) % t.Groups
				dst := dg*nodesPerGroup + rnd.intn(nodesPerGroup)
				n.Inject(node, dst)
			}
		}
		n.Step()
	}
}

func TestParseAndString(t *testing.T) {
	for _, a := range All() {
		got, err := Parse(a.String())
		if err != nil || got != a {
			t.Errorf("Parse(%q) = %v, %v", a.String(), got, err)
		}
	}
	names := map[string]Algo{
		"min": Min, "MINIMAL": Min, "val": Valiant, "Valiant": Valiant,
		"pb": PB, "piggybacking": PB, "olm": OLM,
		"base": Base, "hybrid": Hybrid, "ECTN": ECtN,
	}
	for _, name := range slices.Sorted(maps.Keys(names)) {
		want := names[name]
		got, err := Parse(name)
		if err != nil || got != want {
			t.Errorf("Parse(%q) = %v, %v", name, got, err)
		}
	}
	if _, err := Parse("nope"); err == nil {
		t.Error("Parse accepted garbage")
	}
	if Algo(99).String() == "" {
		t.Error("unknown algo has empty name")
	}
}

// TestGrammarListsEveryName: the help text lists every spelling the
// names table parses, and each parses back to its mechanism.
func TestGrammarListsEveryName(t *testing.T) {
	listed := strings.FieldsFunc(Grammar(), func(r rune) bool { return strings.ContainsRune(" |(),", r) })
	for a, names := range algoNames {
		for _, name := range names {
			if !slices.Contains(listed, name) {
				t.Errorf("Grammar() = %q does not list %q", Grammar(), name)
			}
			if got, err := Parse(name); err != nil || got != Algo(a) {
				t.Errorf("Parse(%q) = %v, %v; want %v", name, got, err, Algo(a))
			}
		}
	}
}

// TestNewRejectsBadOptions: a negative threshold or percentage is an
// error for every mechanism, not a policy that compares against it, and
// ECtN needs an exchange period of at least one cycle (`now % period` is
// 0 every |period| cycles for a negative one and divides by zero for 0).
func TestNewRejectsBadOptions(t *testing.T) {
	cases := []struct {
		name string
		algo Algo
		set  func(*Options)
	}{
		{"BaseTh", Base, func(o *Options) { o.BaseTh = -1 }},
		{"HybridTh", Hybrid, func(o *Options) { o.HybridTh = -1 }},
		{"CombinedTh", ECtN, func(o *Options) { o.CombinedTh = -1 }},
		{"OLMRelPct", OLM, func(o *Options) { o.OLMRelPct = -1 }},
		{"HybridRelPct", Hybrid, func(o *Options) { o.HybridRelPct = -1 }},
		{"PBSatPackets", PB, func(o *Options) { o.PBSatPackets = -1 }},
		{"ECtNPeriod", ECtN, func(o *Options) { o.ECtNPeriod = -5 }},
		{"ECtNPeriod", ECtN, func(o *Options) { o.ECtNPeriod = 0 }},
	}
	for _, tc := range cases {
		o := DefaultOptions()
		tc.set(&o)
		if _, err := New(tc.algo, o); err == nil {
			t.Errorf("%v with %s %+v accepted", tc.algo, tc.name, o)
		}
	}
	// Zeros are thresholds like any other, and a mechanism that has no
	// exchange ignores the period.
	o := DefaultOptions()
	o.BaseTh, o.ECtNPeriod = 0, 0
	if _, err := New(Base, o); err != nil {
		t.Errorf("Base with BaseTh 0 and no period rejected: %v", err)
	}
}

func TestAlgoPredicates(t *testing.T) {
	if Min.IsAdaptive() || Valiant.IsAdaptive() {
		t.Error("oblivious mechanisms flagged adaptive")
	}
	for _, a := range []Algo{PB, OLM, Base, Hybrid, ECtN} {
		if !a.IsAdaptive() {
			t.Errorf("%v not adaptive", a)
		}
	}
	for _, a := range []Algo{Base, Hybrid, ECtN, BaseProb} {
		if !a.IsContentionBased() {
			t.Errorf("%v not contention-based", a)
		}
	}
	for _, a := range []Algo{Min, Valiant, PB, OLM} {
		if a.IsContentionBased() {
			t.Errorf("%v wrongly contention-based", a)
		}
	}
	if len(Evaluated()) != 7 || len(All()) != 8 {
		t.Errorf("algorithm sets sized %d/%d, want 7/8", len(Evaluated()), len(All()))
	}
	if RequiredLocalVCs(Valiant) != 4 || RequiredLocalVCs(PB) != 4 || RequiredLocalVCs(Base) != 3 {
		t.Error("RequiredLocalVCs wrong")
	}
}

func TestDefaultOptionsMatchTableI(t *testing.T) {
	o := DefaultOptions()
	if o.BaseTh != 6 || o.HybridTh != 7 || o.CombinedTh != 10 {
		t.Fatalf("contention thresholds %+v", o)
	}
	if o.OLMRelPct != 50 || o.HybridRelPct != 35 || o.PBSatPackets != 3 {
		t.Fatalf("congestion thresholds %+v", o)
	}
	if o.ECtNPeriod != 100 {
		t.Fatalf("ECtN period %d", o.ECtNPeriod)
	}
}

func TestNewRejectsUnknown(t *testing.T) {
	if _, err := New(Algo(42), DefaultOptions()); err == nil {
		t.Fatal("unknown algo accepted")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("MustNew did not panic")
		}
	}()
	MustNew(Algo(42), DefaultOptions())
}

// TestAllAlgorithmsDeliver drives every mechanism with mixed traffic and
// checks conservation, invariants and full drain (progress/deadlock
// freedom in practice).
func TestAllAlgorithmsDeliver(t *testing.T) {
	for _, a := range All() {
		a := a
		t.Run(a.String(), func(t *testing.T) {
			t.Parallel()
			n := build(t, a, testOptions(), 7)
			rnd := &testRand{s: 0xfeed + uint64(a)}
			driveUniform(n, rnd, 300, 8)
			driveAdversarial(n, rnd, 300, 8, 1)
			if err := n.CheckInvariants(); err != nil {
				t.Fatal(err)
			}
			if !n.Drain(60000) {
				t.Fatalf("%v: %d packets stuck", a, n.InFlight)
			}
			if err := n.CheckInvariants(); err != nil {
				t.Fatal(err)
			}
			if n.NumDelivered != n.NumGenerated {
				t.Fatalf("%v: delivered %d of %d", a, n.NumDelivered, n.NumGenerated)
			}
		})
	}
}

// TestMinIsMinimal: MIN packets never misroute and never exceed the
// hierarchical hop bounds (2 local + 1 global).
func TestMinIsMinimal(t *testing.T) {
	n := build(t, Min, DefaultOptions(), 3)
	bad := 0
	n.OnDeliver = func(p *router.Packet, _ int64) {
		if p.GlobalMisroute || p.LocalMisroutes > 0 || p.GlobalHops > 1 || p.LocalHops > 2 {
			bad++
		}
	}
	rnd := &testRand{s: 11}
	driveUniform(n, rnd, 400, 10)
	n.Drain(30000)
	if bad != 0 {
		t.Fatalf("%d MIN packets were nonminimal", bad)
	}
	if n.NumDelivered == 0 {
		t.Fatal("nothing delivered")
	}
}

// TestValiantPathShape: VAL inter-group packets are globally misrouted
// with at most 2 global and 4 local hops; intra-group packets stay
// minimal.
func TestValiantPathShape(t *testing.T) {
	n := build(t, Valiant, DefaultOptions(), 5)
	topo := n.Topo
	var interGroup, marked, tooLong int
	n.OnDeliver = func(p *router.Packet, _ int64) {
		if topo.GroupOfNode(int(p.Src)) != topo.GroupOfNode(int(p.Dst)) {
			interGroup++
			if p.GlobalMisroute {
				marked++
			}
			if p.GlobalHops > 2 || p.LocalHops > 4 {
				tooLong++
			}
		} else if p.GlobalHops != 0 {
			tooLong++
		}
	}
	rnd := &testRand{s: 13}
	driveUniform(n, rnd, 400, 10)
	n.Drain(30000)
	if interGroup == 0 {
		t.Fatal("no inter-group packets observed")
	}
	if marked != interGroup {
		t.Fatalf("only %d/%d inter-group VAL packets marked misrouted", marked, interGroup)
	}
	if tooLong != 0 {
		t.Fatalf("%d packets exceeded Valiant hop bounds", tooLong)
	}
}

// TestGlobalHopBound: no mechanism may ever take more than 2 global hops.
func TestGlobalHopBound(t *testing.T) {
	for _, a := range All() {
		n := build(t, a, testOptions(), 9)
		over := 0
		n.OnDeliver = func(p *router.Packet, _ int64) {
			if p.GlobalHops > 2 {
				over++
			}
		}
		rnd := &testRand{s: 0xabc + uint64(a)}
		driveAdversarial(n, rnd, 300, 15, 1)
		n.Drain(60000)
		if over > 0 {
			t.Errorf("%v: %d packets took >2 global hops", a, over)
		}
	}
}

// TestBaseCounterCensus: at any instant, every contention counter equals
// the number of input-VC head packets whose minimal output it is — the
// defining invariant of §III-B.
func TestBaseCounterCensus(t *testing.T) {
	n := build(t, Base, testOptions(), 21)
	rnd := &testRand{s: 17}
	check := func() {
		for _, r := range n.Routers {
			census := make([]int32, r.NumPorts())
			for port := 0; port < r.NumPorts(); port++ {
				for vc := 0; vc < r.VCs(port); vc++ {
					p := r.HeadPacket(port, vc)
					if p == nil || !p.HeadSeen {
						continue
					}
					if p.CountedPort >= 0 {
						census[p.CountedPort]++
					}
				}
			}
			for port := 0; port < r.NumPorts(); port++ {
				if got := r.Contention.Get(port); got != census[port] {
					t.Fatalf("router %d port %d: counter %d, census %d",
						r.ID, port, got, census[port])
				}
			}
		}
	}
	for c := 0; c < 200; c++ {
		for node := 0; node < n.Topo.Nodes; node++ {
			if rnd.hit(20) {
				dst := rnd.intn(n.Topo.Nodes)
				if dst != node {
					n.Inject(node, dst)
				}
			}
		}
		n.Step()
		if c%10 == 0 {
			check()
		}
	}
	n.Drain(30000)
	check()
	// After a full drain every counter must be zero.
	for _, r := range n.Routers {
		if r.Contention.Sum() != 0 {
			t.Fatalf("router %d: residual contention %d", r.ID, r.Contention.Sum())
		}
	}
}

// TestCountedEqualsHeadSeen: every head-seen packet holds exactly one
// counter reference under Base (CountedPort set on head, cleared on
// dequeue).
func TestCountedEqualsHeadSeen(t *testing.T) {
	n := build(t, Base, testOptions(), 23)
	rnd := &testRand{s: 29}
	driveUniform(n, rnd, 150, 15)
	for _, r := range n.Routers {
		for port := 0; port < r.NumPorts(); port++ {
			for vc := 0; vc < r.VCs(port); vc++ {
				p := r.HeadPacket(port, vc)
				if p == nil {
					continue
				}
				if p.HeadSeen && p.CountedPort < 0 {
					t.Fatalf("head-seen packet without counter: %v", p)
				}
				if !p.HeadSeen && p.CountedPort >= 0 {
					t.Fatalf("unseen packet holding counter: %v", p)
				}
			}
		}
	}
	n.Drain(30000)
}

// TestMinSaturatesAdversarialBaseDoesNot: the headline behavior — under
// ADV+1 traffic at a load well above the single minimal global link's
// capacity, Base (contention counters) sustains far more throughput than
// MIN, approaching Valiant.
func TestMinSaturatesAdversarialBaseDoesNot(t *testing.T) {
	throughput := func(a Algo) float64 {
		n := build(t, a, testOptions(), 31)
		rnd := &testRand{s: 37}
		warm := 600
		driveAdversarial(n, rnd, warm, 30, 1) // 0.3 pkt/node/cycle >> MIN capacity
		before := n.NumDelivered
		meas := 600
		driveAdversarial(n, rnd, meas, 30, 1)
		return float64(n.NumDelivered-before) / float64(meas) / float64(n.Topo.Nodes)
	}
	minTp := throughput(Min)
	baseTp := throughput(Base)
	valTp := throughput(Valiant)
	if baseTp < 1.5*minTp {
		t.Fatalf("Base (%f pkt/node/cyc) not clearly above MIN (%f)", baseTp, minTp)
	}
	if baseTp < 0.6*valTp {
		t.Fatalf("Base (%f) far below Valiant (%f)", baseTp, valTp)
	}
}

// TestBaseMisroutesNearlyAllAdversarialTraffic: §V-B observes misrouting
// stabilizes near 100% under sustained ADV+1 with contention counters.
func TestBaseMisroutesNearlyAllAdversarialTraffic(t *testing.T) {
	n := build(t, Base, testOptions(), 41)
	rnd := &testRand{s: 43}
	driveAdversarial(n, rnd, 800, 25, 1)
	var mis, tot int
	n.OnDeliver = func(p *router.Packet, _ int64) {
		tot++
		if p.GlobalMisroute {
			mis++
		}
	}
	driveAdversarial(n, rnd, 400, 25, 1)
	if tot == 0 {
		t.Fatal("no deliveries in measurement window")
	}
	frac := float64(mis) / float64(tot)
	if frac < 0.7 {
		t.Fatalf("only %.0f%% of adversarial traffic misrouted", frac*100)
	}
	n.Drain(60000)
}

// TestBaseStaysMinimalUnderLowUniform: under light uniform traffic the
// counters stay below threshold and Base behaves exactly like MIN
// (optimal latency claim of Fig. 5a).
func TestBaseStaysMinimalUnderLowUniform(t *testing.T) {
	// Table I thresholds: th=6 is calibrated to avoid false triggers
	// under uniform traffic (§VI-A), so use the defaults here rather
	// than the small-radix adversarial-friendly thresholds.
	n := build(t, Base, DefaultOptions(), 47)
	var mis int
	n.OnDeliver = func(p *router.Packet, _ int64) {
		if p.GlobalMisroute || p.LocalMisroutes > 0 {
			mis++
		}
	}
	rnd := &testRand{s: 53}
	driveUniform(n, rnd, 500, 4) // ~4% packet rate: light load
	n.Drain(30000)
	if n.NumDelivered == 0 {
		t.Fatal("nothing delivered")
	}
	frac := float64(mis) / float64(n.NumDelivered)
	if frac > 0.01 {
		t.Fatalf("%.2f%% of light uniform traffic misrouted; counters trigger falsely", frac*100)
	}
}

// TestOLMNoMisrouteAtZeroOccupancy: OLM's relative trigger cannot fire
// when the minimal path is empty.
func TestOLMNoMisrouteAtZeroOccupancy(t *testing.T) {
	n := build(t, OLM, DefaultOptions(), 59)
	var mis int
	n.OnDeliver = func(p *router.Packet, _ int64) {
		if p.GlobalMisroute || p.LocalMisroutes > 0 {
			mis++
		}
	}
	// One packet at a time: occupancies are always 0 at decision time.
	rnd := &testRand{s: 61}
	for i := 0; i < 40; i++ {
		src := rnd.intn(n.Topo.Nodes)
		dst := rnd.intn(n.Topo.Nodes)
		if src == dst {
			continue
		}
		n.Inject(src, dst)
		n.Drain(5000)
	}
	if mis != 0 {
		t.Fatalf("%d packets misrouted on an idle network", mis)
	}
}

// TestPBSaturationFlags: hammer one group's minimal global link; PB must
// flag it and divert traffic to Valiant paths.
func TestPBSaturationFlags(t *testing.T) {
	n := build(t, PB, testOptions(), 67)
	rnd := &testRand{s: 71}
	var val, tot int
	n.OnDeliver = func(p *router.Packet, _ int64) {
		tot++
		if p.GlobalMisroute {
			val++
		}
	}
	driveAdversarial(n, rnd, 1500, 25, 1)
	n.Drain(60000)
	if tot == 0 {
		t.Fatal("nothing delivered")
	}
	frac := float64(val) / float64(tot)
	if frac < 0.3 {
		t.Fatalf("PB diverted only %.0f%% under heavy adversarial traffic", frac*100)
	}
}

// TestPBMostlyMinimalUnderLightUniform: PB should rarely divert at light
// uniform load.
func TestPBMostlyMinimalUnderLightUniform(t *testing.T) {
	n := build(t, PB, testOptions(), 73)
	var val int
	n.OnDeliver = func(p *router.Packet, _ int64) {
		if p.GlobalMisroute {
			val++
		}
	}
	rnd := &testRand{s: 79}
	// 1% packet rate = 0.08 phits/(node·cycle): genuinely light load.
	// (PB legitimately diverts 10-20% at mid loads — that is the
	// latency gap above MIN the paper shows in Fig. 5a.)
	driveUniform(n, rnd, 500, 1)
	n.Drain(30000)
	frac := float64(val) / float64(n.NumDelivered)
	if frac > 0.15 {
		t.Fatalf("PB diverted %.0f%% of light uniform traffic", frac*100)
	}
}

// TestECtNPartialPropagation: under adversarial pressure the combined
// counters must become visible at routers that only see their own local
// slice of the demand, after the exchange period.
func TestECtNPartialPropagation(t *testing.T) {
	o := testOptions()
	n := build(t, ECtN, o, 83)
	rnd := &testRand{s: 89}
	driveAdversarial(n, rnd, int(o.ECtNPeriod)+50, 25, 1)
	topo := n.Topo
	// For group 0, the minimal link to group 1 is link 0; after one
	// exchange group 0's combined array — the one every router of the
	// group reads — must hold a nonzero counter for it.
	l := topo.GlobalLinkToGroup(0, 1)
	if c := n.Alg.(*ectnAlg).combined[0][l]; c <= 0 {
		t.Fatalf("group 0 sees combined demand %d on its link to group 1", c)
	}
	n.Drain(60000)
	// Partial counters must fully unwind.
	for _, r := range n.Routers {
		for i := 0; i < r.Ectn.Links(); i++ {
			if r.Ectn.Partial(i) != 0 {
				t.Fatalf("router %d: residual partial[%d]=%d", r.ID, i, r.Ectn.Partial(i))
			}
		}
	}
}

// TestECtNMisroutesAtInjection: with combined counters over threshold,
// ECtN packets divert on their very first hop (global port of the source
// router) instead of crowding the local path — observable as misrouted
// packets whose first hop was global (no source-group local hop).
func TestECtNMisroutesAtInjection(t *testing.T) {
	o := testOptions()
	n := build(t, ECtN, o, 97)
	rnd := &testRand{s: 101}
	driveAdversarial(n, rnd, 600, 25, 1)
	var injMis, tot int
	n.OnDeliver = func(p *router.Packet, _ int64) {
		tot++
		if p.GlobalMisroute && p.GlobalHops == 2 && p.LocalHops <= 2 {
			injMis++
		}
	}
	driveAdversarial(n, rnd, 400, 25, 1)
	if tot == 0 || injMis == 0 {
		t.Fatalf("no injection-misrouted packets observed (%d/%d)", injMis, tot)
	}
	n.Drain(60000)
}

// TestHybridMisroutesUnderAdversarial: Hybrid must adapt via either
// trigger.
func TestHybridMisroutesUnderAdversarial(t *testing.T) {
	n := build(t, Hybrid, testOptions(), 103)
	rnd := &testRand{s: 107}
	driveAdversarial(n, rnd, 800, 25, 1)
	var mis, tot int
	n.OnDeliver = func(p *router.Packet, _ int64) {
		tot++
		if p.GlobalMisroute {
			mis++
		}
	}
	driveAdversarial(n, rnd, 400, 25, 1)
	if tot == 0 {
		t.Fatal("no deliveries")
	}
	if float64(mis)/float64(tot) < 0.5 {
		t.Fatalf("Hybrid misrouted only %d/%d under adversarial load", mis, tot)
	}
	n.Drain(60000)
}

// TestThresholdDirection: raising Base's threshold must not increase
// misrouting under uniform traffic (§VI-A: higher thresholds favor UN).
func TestThresholdDirection(t *testing.T) {
	misFrac := func(th int32) float64 {
		o := DefaultOptions()
		o.BaseTh = th
		n := build(t, Base, o, 113)
		var mis int
		n.OnDeliver = func(p *router.Packet, _ int64) {
			if p.GlobalMisroute || p.LocalMisroutes > 0 {
				mis++
			}
		}
		rnd := &testRand{s: 127}
		driveUniform(n, rnd, 400, 25)
		n.Drain(30000)
		return float64(mis) / float64(n.NumDelivered)
	}
	low := misFrac(1)
	high := misFrac(50)
	if low < high {
		t.Fatalf("misroute fraction low-th %.3f < high-th %.3f", low, high)
	}
	if high > 0.001 {
		t.Fatalf("astronomic threshold still misroutes (%.3f)", high)
	}
}

// TestDeterministicAcrossRuns: every algorithm must produce identical
// results for identical seeds.
func TestDeterministicAcrossRuns(t *testing.T) {
	for _, a := range All() {
		run := func() (uint64, uint64) {
			n := build(t, a, testOptions(), 999)
			rnd := &testRand{s: 131}
			driveUniform(n, rnd, 200, 10)
			driveAdversarial(n, rnd, 200, 10, 1)
			n.Drain(60000)
			return n.NumDelivered, n.DeliveredPhits
		}
		d1, p1 := run()
		d2, p2 := run()
		if d1 != d2 || p1 != p2 {
			t.Errorf("%v: nondeterministic (%d/%d vs %d/%d)", a, d1, p1, d2, p2)
		}
	}
}

// TestAdvHLocalMisrouting: ADV+h requires local misrouting in the
// intermediate group (§IV-A); contention mechanisms must deliver local
// misroutes there.
func TestAdvHLocalMisrouting(t *testing.T) {
	n := build(t, Base, testOptions(), 137)
	rnd := &testRand{s: 139}
	h := n.Topo.H
	driveAdversarial(n, rnd, 800, 25, h)
	var localMis int
	n.OnDeliver = func(p *router.Packet, _ int64) {
		if p.LocalMisroutes > 0 {
			localMis++
		}
	}
	driveAdversarial(n, rnd, 400, 25, h)
	n.Drain(60000)
	if localMis == 0 {
		t.Fatal("no local misroutes under ADV+h")
	}
}
