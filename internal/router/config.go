// Package router implements the cycle-level router and network fabric the
// paper simulates with FOGSim: input/output-buffered virtual-cut-through
// routers with virtual channels, credit-based flow control, a separable
// batch allocator with internal speedup, a fixed-latency pipeline and
// latency-accurate local/global links.
//
// The fabric is mechanics only. All routing policy — which output a head
// packet should request, when to misroute — and all routing state — the
// contention counters, ECtN's arrays — live behind the Algorithm
// interface in package routing, fed by its hooks. The split mirrors the
// paper's architecture: the contention counters sit beside the router
// datapath and are consulted by the routing function.
//
// Stepping is active-set scheduled: each cycle visits only the NICs with
// backlog, the routers with unrouted head packets and the routers with
// staged output work, in the same ascending-id order as a full scan, so
// per-cycle cost follows traffic rather than topology size while results
// stay cycle-for-cycle identical to the full scan (the tests' StepFullScan
// oracle, export_test.go; see the equivalence tests). With
// Config.Workers > 1 each cycle's phases additionally fan out over
// group-contiguous shards with deterministic barriers and mailboxes,
// bit-identically to sequential stepping (see parallel.go).
package router

import (
	"fmt"
	"math"

	"cbar/internal/topology"
)

// Config gathers every micro-architectural parameter of the simulated
// network. Defaults follow Table I of the paper.
type Config struct {
	Topo topology.Params

	// PacketSize is the fixed packet length in phits (Table I: 8).
	PacketSize int

	// Virtual channels per input port, by port class (Table I: 3 for
	// local and injection ports, 2 for global ports; VAL and PB raise
	// local ports to 4 for their longer paths).
	VCsInjection int
	VCsLocal     int
	VCsGlobal    int

	// Input buffer capacity per VC, in phits (Table I: 32 local and
	// injection, 256 global).
	BufInjection int
	BufLocal     int
	BufGlobal    int

	// BufOut is the output buffer capacity per output port, in phits
	// (Table I: 32).
	BufOut int

	// Link latencies in cycles, for both data and credits
	// (Table I: 10 local, 100 global).
	LatencyLocal  int
	LatencyGlobal int

	// PipelineLatency is the router traversal latency in cycles from
	// switch allocation to the output buffer (Table I: 5).
	PipelineLatency int

	// Speedup is the internal frequency speedup: allocation iterations
	// per cycle and internal crossbar phits per cycle (Table I: 2).
	Speedup int

	// NICQueuePackets bounds each node's generation queue; while full,
	// generation stalls (source throttling). This bounds memory beyond
	// the saturation point without affecting sub-saturation results.
	NICQueuePackets int

	// Workers is the number of shard workers Step fans each cycle out
	// over (routers are partitioned by group into contiguous shards;
	// see parallel.go). 0 and 1 both mean sequential stepping; values
	// above the group count are clamped to it. Results are
	// cycle-for-cycle identical at every worker count.
	Workers int

	// Congestion switches the ECN-style congestion-management loop
	// (see congestion.go). The zero value disables it, leaving results
	// bit-identical to a configuration without the subsystem.
	Congestion CongestionConfig

	// Faults is the fault-injection plan (see faultplan.go). The zero
	// value schedules nothing, leaving results bit-identical to a
	// configuration without the subsystem.
	Faults FaultConfig
}

// DefaultConfig returns the Table I configuration for the given topology
// parameters.
func DefaultConfig(p topology.Params) Config {
	return Config{
		Topo:            p,
		PacketSize:      8,
		VCsInjection:    3,
		VCsLocal:        3,
		VCsGlobal:       2,
		BufInjection:    32,
		BufLocal:        32,
		BufGlobal:       256,
		BufOut:          32,
		LatencyLocal:    10,
		LatencyGlobal:   100,
		PipelineLatency: 5,
		Speedup:         2,
		NICQueuePackets: 64,
	}
}

// Validate reports whether the configuration is self-consistent.
func (c Config) Validate() error {
	if err := c.Topo.Validate(); err != nil {
		return err
	}
	// A packet carries its destination's group and a group-wide global
	// link index in 16 bits (dstGroup, CountedLink).
	if g := c.Topo.A*c.Topo.H + 1; g > math.MaxInt16 {
		return fmt.Errorf("router: %d groups, more than the %d a packet can name", g, math.MaxInt16)
	}
	if c.PacketSize < 1 {
		return fmt.Errorf("router: packet size %d < 1", c.PacketSize)
	}
	if c.VCsInjection < 1 || c.VCsLocal < 1 || c.VCsGlobal < 1 {
		return fmt.Errorf("router: VC counts must be >= 1 (inj=%d local=%d global=%d)",
			c.VCsInjection, c.VCsLocal, c.VCsGlobal)
	}
	for _, b := range []struct {
		name string
		v    int
	}{
		{"injection input buffer", c.BufInjection},
		{"local input buffer", c.BufLocal},
		{"global input buffer", c.BufGlobal},
		{"output buffer", c.BufOut},
	} {
		if b.v < c.PacketSize {
			return fmt.Errorf("router: %s (%d phits) smaller than one packet (%d phits); virtual cut-through needs room for a whole packet",
				b.name, b.v, c.PacketSize)
		}
		// A VC queue counts its packets, and an output stage indexes its
		// ring, in 16 bits (vcQueue.n, outRing).
		if k := b.v / c.PacketSize; k > math.MaxInt16 {
			return fmt.Errorf("router: %s holds %d packets, more than the %d a 16-bit count holds (a VC's packet count, an output stage's ring index)",
				b.name, k, math.MaxInt16)
		}
	}
	if c.LatencyLocal < 1 || c.LatencyGlobal < 1 {
		return fmt.Errorf("router: link latencies must be >= 1 (local=%d global=%d)",
			c.LatencyLocal, c.LatencyGlobal)
	}
	if c.PipelineLatency < 1 {
		return fmt.Errorf("router: pipeline latency %d < 1", c.PipelineLatency)
	}
	// A packet's tail must leave its upstream input queue no later than
	// its head arrives downstream (tail-leave at grant + serialization,
	// head-arrive at grant + pipeline + link latency). A shorter path
	// would have the packet resident in two input queues at once, which
	// the per-queue transient state on the Packet struct (HeadSeen,
	// CountedPort/CountedLink) does not model — the contention counters
	// corrupt. Reject instead of simulating garbage.
	if min := c.PipelineLatency + c.LatencyLocal; min < c.PacketSize {
		return fmt.Errorf("router: PipelineLatency+LatencyLocal (%d) must cover the packet serialization time (%d phits)",
			min, c.PacketSize)
	}
	if min := c.PipelineLatency + c.LatencyGlobal; min < c.PacketSize {
		return fmt.Errorf("router: PipelineLatency+LatencyGlobal (%d) must cover the packet serialization time (%d phits)",
			min, c.PacketSize)
	}
	if c.Speedup < 1 {
		return fmt.Errorf("router: speedup %d < 1", c.Speedup)
	}
	if c.NICQueuePackets < 1 {
		return fmt.Errorf("router: NIC queue %d < 1", c.NICQueuePackets)
	}
	if c.Workers < 0 {
		return fmt.Errorf("router: workers %d < 0", c.Workers)
	}
	if c.Faults.Enabled() || c.Faults.RetryLimit > 0 {
		if err := c.Faults.Resolved(c).validate(c); err != nil {
			return err
		}
	}
	return nil
}

// PortKind classifies router ports.
type PortKind uint8

const (
	// Injection ports carry traffic from attached nodes in and, on the
	// output side, eject traffic to them.
	Injection PortKind = iota
	// Local ports connect routers within a group.
	Local
	// Global ports connect groups.
	Global
)

func (k PortKind) String() string {
	switch k {
	case Injection:
		return "injection"
	case Local:
		return "local"
	case Global:
		return "global"
	}
	return "invalid"
}

// Shardable reports whether a network under c may step on more than
// one worker (Build's reason is at its workers > 1 check); the automatic
// worker split keeps a config that is not sequential.
func (c Config) Shardable() bool {
	return c.PipelineLatency+c.LatencyGlobal > c.PacketSize
}

// VCsFor returns the number of VCs for a port class.
func (c Config) VCsFor(k PortKind) int {
	switch k {
	case Injection:
		return c.VCsInjection
	case Local:
		return c.VCsLocal
	default:
		return c.VCsGlobal
	}
}

// BufFor returns the per-VC input buffer capacity for a port class.
func (c Config) BufFor(k PortKind) int {
	switch k {
	case Injection:
		return c.BufInjection
	case Local:
		return c.BufLocal
	default:
		return c.BufGlobal
	}
}

// LatencyFor returns the link latency for a port class; injection and
// ejection channels are direct (latency 0, the NIC sits at the router).
func (c Config) LatencyFor(k PortKind) int {
	switch k {
	case Local:
		return c.LatencyLocal
	case Global:
		return c.LatencyGlobal
	default:
		return 0
	}
}

// MeanVCsPerPort returns the mean number of VCs over a router's input
// ports, the quantity the paper's §VI-A threshold analysis uses (2.74 for
// the Table I router).
func (c Config) MeanVCsPerPort() float64 {
	t := c.Topo
	total := t.P*c.VCsInjection + (t.A-1)*c.VCsLocal + t.H*c.VCsGlobal
	return float64(total) / float64(t.P+t.A-1+t.H)
}
