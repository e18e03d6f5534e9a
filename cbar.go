package cbar

import (
	"cbar/internal/routing"
	"cbar/internal/sim"
	"cbar/internal/topology"
)

// Algorithm identifies one of the seven routing mechanisms of the
// paper's evaluation (or the §VI-C extension). It is an alias of the
// engine's routing.Algo: String returns the canonical name ("MIN",
// "PB", "Base", ...) that ParseAlgorithm accepts and result CSVs print,
// and IsContentionBased reports whether the mechanism is one of the
// paper's contention-counter mechanisms.
type Algorithm = routing.Algo

// The mechanisms, in the paper's presentation order.
const (
	// MIN is oblivious hierarchical minimal routing.
	MIN = routing.Min
	// VAL is Valiant routing through a random intermediate node.
	VAL = routing.Valiant
	// PB is PiggyBacking, the source-routed congestion-based adaptive
	// baseline (Jiang et al., ISCA 2009).
	PB = routing.PB
	// OLM is Opportunistic Local Misrouting, the in-transit
	// congestion-based adaptive baseline (García et al., ICPP 2013).
	OLM = routing.OLM
	// Base is the paper's contention-counter mechanism (§III-B).
	Base = routing.Base
	// Hybrid combines contention counters with credit occupancy
	// (§III-C).
	Hybrid = routing.Hybrid
	// ECtN adds Explicit Contention Notification: group-wide combined
	// contention counters (§III-D).
	ECtN = routing.ECtN
	// BaseP is the statistical-trigger extension of §VI-C (described
	// but not evaluated by the paper): the misrouting probability grows
	// with the counter value, so the minimal path keeps a traffic
	// share.
	BaseP = routing.BaseProb
)

// Algorithms returns all mechanisms in presentation order: the paper's
// evaluated seven followed by the §VI-C extension.
func Algorithms() []Algorithm { return routing.All() }

// EvaluatedAlgorithms returns only the seven mechanisms of the paper's
// evaluation section.
func EvaluatedAlgorithms() []Algorithm { return routing.Evaluated() }

// ParseAlgorithm resolves a case-insensitive mechanism name
// ("min", "val", "pb", "olm", "base", "hybrid", "ectn").
func ParseAlgorithm(s string) (Algorithm, error) { return routing.Parse(s) }

// Scale selects a canned network size. The simulation model is identical
// at every scale; thresholds are rescaled per the paper's §VI-A
// analysis. It is an alias of the engine's sim.Scale: String returns
// the canonical name ("tiny", "small", "paper") that ParseScale
// accepts. A value that is none of the three constants describes no
// network, and every entry point rejects it.
type Scale = sim.Scale

// Canned scales.
const (
	// Tiny is p=4,a=4,h=2: 9 groups, 36 routers, 144 nodes. For tests
	// and interactive exploration.
	Tiny = sim.Tiny
	// Small is p=4,a=8,h=4: 33 groups, 264 routers, 1056 nodes, with
	// the paper's balanced proportions (a=2h, p=h). The default for
	// figure regeneration on a laptop.
	Small = sim.Small
	// Paper is the exact Table I system: p=8,a=16,h=8, 129 groups,
	// 2064 routers with 31 ports, 16512 nodes.
	Paper = sim.Paper
)

// ParseScale resolves "tiny", "small" or "paper".
func ParseScale(v string) (Scale, error) { return sim.ParseScale(v) }

// Config describes a simulation: topology, mechanism and every Table I
// micro-architecture and policy parameter. Zero-valued fields keep their
// Table I (or §VI-A-scaled) defaults; NewConfig fills everything in.
type Config struct {
	// Topology: nodes per router, routers per group, global links per
	// router. The network is the canonical maximum size, a*h+1 groups.
	P, A, H int

	// Algorithm is the routing mechanism.
	Algorithm Algorithm

	// Workers is the number of shard workers each simulated cycle fans
	// out over (the network is partitioned into contiguous blocks of
	// whole groups). Results are cycle-for-cycle identical at every
	// worker count. 0 (the default) lets the sweep entry points split
	// GOMAXPROCS between grid parallelism and intra-run sharding
	// automatically: wide load×seed grids keep runs sequential, narrow
	// grids (the common paper-scale case) shard each run across the
	// idle cores. 1 forces sequential stepping; a negative count is an
	// error.
	Workers int

	// Congestion switches the optional congestion-management layer
	// (ECN-style marking, source notifications, AIMD injection
	// throttling, NIC shedding). The zero value leaves it off and
	// reproduces pre-congestion results bit-identically.
	Congestion Congestion

	// Faults configures the optional fault-injection plan (scheduled
	// link/router failures and repairs, random link-failure expansion,
	// source retransmission). The zero value schedules nothing and
	// reproduces pre-fault results bit-identically.
	Faults Faults

	// Micro-architecture (Table I defaults via NewConfig).
	PacketSize      int // phits per packet
	VCsInjection    int // virtual channels on the injection channel
	VCsLocal        int // VCs on local channels (VAL and PB are raised to 4 automatically)
	VCsGlobal       int // VCs on global channels
	BufInjection    int // injection buffer, phits per VC
	BufLocal        int // local-channel input buffer, phits per VC
	BufGlobal       int // global-channel input buffer, phits per VC
	BufOut          int // output buffer, phits per port
	LatencyLocal    int // local-link latency, cycles
	LatencyGlobal   int // global-link latency, cycles
	PipelineLatency int // router pipeline latency, cycles
	Speedup         int // internal router speedup (allocation passes per cycle)
	NICQueuePackets int // NIC source-queue capacity, packets

	// Policy thresholds (§VI-A-scaled defaults via NewConfig).
	BaseTh       int   // Base contention-counter misroute threshold
	HybridTh     int   // Hybrid contention threshold (counters consulted past it)
	CombinedTh   int   // ECtN combined local+remote counter threshold
	OLMRelPct    int   // OLM relative credit comparison margin, percent
	HybridRelPct int   // Hybrid relative credit comparison margin, percent
	PBSatPackets int   // PB saturation-flag queue threshold, packets
	ECtNPeriod   int64 // ECtN group combine/broadcast period, cycles
}

// NewConfig returns the fully populated Table I configuration for the
// scale and mechanism.
func NewConfig(s Scale, a Algorithm) Config {
	p := s.Params()
	return NewConfigFor(p.P, p.A, p.H, a)
}

// NewConfigFor is NewConfig for an arbitrary topology (p nodes/router,
// a routers/group, h global links/router).
func NewConfigFor(p, a, h int, alg Algorithm) Config {
	rc := sim.NewConfig(topology.Params{P: p, A: a, H: h}, alg)
	return Config{
		P: p, A: a, H: h,
		Algorithm:       alg,
		PacketSize:      rc.Router.PacketSize,
		VCsInjection:    rc.Router.VCsInjection,
		VCsLocal:        rc.Router.VCsLocal,
		VCsGlobal:       rc.Router.VCsGlobal,
		BufInjection:    rc.Router.BufInjection,
		BufLocal:        rc.Router.BufLocal,
		BufGlobal:       rc.Router.BufGlobal,
		BufOut:          rc.Router.BufOut,
		LatencyLocal:    rc.Router.LatencyLocal,
		LatencyGlobal:   rc.Router.LatencyGlobal,
		PipelineLatency: rc.Router.PipelineLatency,
		Speedup:         rc.Router.Speedup,
		NICQueuePackets: rc.Router.NICQueuePackets,
		BaseTh:          int(rc.Opts.BaseTh),
		HybridTh:        int(rc.Opts.HybridTh),
		CombinedTh:      int(rc.Opts.CombinedTh),
		OLMRelPct:       int(rc.Opts.OLMRelPct),
		HybridRelPct:    int(rc.Opts.HybridRelPct),
		PBSatPackets:    int(rc.Opts.PBSatPackets),
		ECtNPeriod:      rc.Opts.ECtNPeriod,
	}
}

// setIf overrides *dst with v unless v is zero — the "zero keeps the
// default" rule of Config and the option structs.
func setIf[T int | int32 | int64](dst *T, v T) {
	if v != 0 {
		*dst = v
	}
}

// internal translates the flat public config to the simulation config —
// the one conversion the facade keeps, because Config really is a
// different format (flat Table I fields over sim.Config's Router, Algo
// and Opts). NewConfig pre-filled the struct, so a zero field means the
// caller built Config by hand: it falls back to the default. An unknown
// Algorithm is rejected when the network is built.
func (c Config) internal() sim.Config {
	sc := sim.NewConfig(topology.Params{P: c.P, A: c.A, H: c.H}, c.Algorithm)
	r, o := &sc.Router, &sc.Opts
	setIf(&r.PacketSize, c.PacketSize)
	setIf(&r.VCsInjection, c.VCsInjection)
	setIf(&r.VCsLocal, c.VCsLocal)
	setIf(&r.VCsGlobal, c.VCsGlobal)
	setIf(&r.BufInjection, c.BufInjection)
	setIf(&r.BufLocal, c.BufLocal)
	setIf(&r.BufGlobal, c.BufGlobal)
	setIf(&r.BufOut, c.BufOut)
	setIf(&r.LatencyLocal, c.LatencyLocal)
	setIf(&r.LatencyGlobal, c.LatencyGlobal)
	setIf(&r.PipelineLatency, c.PipelineLatency)
	setIf(&r.Speedup, c.Speedup)
	setIf(&r.NICQueuePackets, c.NICQueuePackets)
	r.Workers, r.Congestion, r.Faults = c.Workers, c.Congestion, c.Faults
	setIf(&o.BaseTh, int32(c.BaseTh))
	setIf(&o.HybridTh, int32(c.HybridTh))
	setIf(&o.CombinedTh, int32(c.CombinedTh))
	setIf(&o.OLMRelPct, int32(c.OLMRelPct))
	setIf(&o.HybridRelPct, int32(c.HybridRelPct))
	setIf(&o.PBSatPackets, int32(c.PBSatPackets))
	setIf(&o.ECtNPeriod, c.ECtNPeriod)
	return sc
}

// Nodes returns the number of compute nodes of the configured topology.
func (c Config) Nodes() int { return (c.A*c.H + 1) * c.A * c.P }

// Routers returns the number of routers of the configured topology.
func (c Config) Routers() int { return (c.A*c.H + 1) * c.A }

// Groups returns the number of groups of the configured topology.
func (c Config) Groups() int { return c.A*c.H + 1 }

// Traffic is a declarative workload specification.
type Traffic struct {
	inner sim.Workload
}

// Uniform is the UN pattern: every packet targets a uniformly random
// node other than its source.
func Uniform() Traffic { return Traffic{sim.UN()} }

// Adversarial is ADV+offset: every node sends to a random node in the
// group `offset` positions away (§IV-A). ADV+1 saturates the minimal
// global link; ADV+h additionally saturates source-group local links.
func Adversarial(offset int) Traffic { return Traffic{sim.ADV(offset)} }

// Mixed blends uniformFrac uniform traffic with ADV+offset for the rest
// (the Figure 6 workload).
func Mixed(uniformFrac float64, offset int) Traffic {
	return Traffic{sim.MixUN(uniformFrac, offset)}
}

// Hotspot aims frac of the traffic at `hot` hot nodes (spread evenly
// over the node id space) and the rest uniformly — the classic
// over-subscribed-endpoint workload of the congestion-management
// literature.
func Hotspot(frac float64, hot int) Traffic {
	return Traffic{sim.HotspotUN(frac, hot)}
}

// ShiftPermutation is the fixed node permutation dest = (src+k) mod N:
// every node has exactly one destination, with no statistical smoothing
// across flows. k must not be a multiple of the node count.
func ShiftPermutation(k int) Traffic { return Traffic{sim.ShiftPerm(k)} }

// ComplementPermutation is the fixed permutation dest = N-1-src (the
// arbitrary-size analogue of bit-complement): every node pairs with its
// mirror at the far end of the id space.
func ComplementPermutation() Traffic { return Traffic{sim.ComplementPerm()} }

// Tornado is the group-tornado permutation: every node sends to the node
// at its own in-group position, floor(Groups/2) groups away — ADV-like
// pressure on one global link per group, but as a deterministic
// permutation.
func Tornado() Traffic { return Traffic{sim.TornadoPerm()} }

// WithBurst returns the traffic with a bursty on-off (Markov-modulated)
// arrival process instead of steady Bernoulli injection: geometrically
// distributed ON phases with mean onMean cycles alternate with silent
// OFF phases with mean offMean cycles. With peak == 0 the ON-phase rate
// is the offered load divided by the duty cycle; with peak > 0 the
// ON-phase load is fixed at peak phits/(node·cycle) and the OFF mean
// adapts so the aggregate still matches the offered load.
func (t Traffic) WithBurst(onMean, offMean, peak float64) Traffic {
	return Traffic{t.inner.WithBurst(onMean, offMean, peak)}
}

// WithSkew returns the traffic with heterogeneous per-node loads: frac
// of the nodes (evenly spread over the id space) generate share of the
// aggregate traffic, the rest generating the remainder. frac must lie in
// (0, 1) and share in [0, 1]; a run rejects any other pair but (0, 0),
// which is no skew, as ParseTraffic rejects "skew:0,0.5".
func (t Traffic) WithSkew(frac, share float64) Traffic {
	return Traffic{t.inner.WithSkew(frac, share)}
}

// Name returns the workload's canonical spec ("UN", "ADV+1",
// "mix(0.4,1)", "UN+burst(50,200)"), which ParseTraffic reads back.
func (t Traffic) Name() string { return t.inner.Name() }

// ParseTraffic resolves a case-insensitive workload spec such as
// "adv+1", "mix:0.4,1" or "hotspot:0.2,8+burst:50,200", or any name
// Traffic.Name prints (README.md tabulates the grammar).
func ParseTraffic(s string) (Traffic, error) { w, err := sim.ParseWorkload(s); return Traffic{w}, err }
