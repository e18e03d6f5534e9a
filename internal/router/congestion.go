package router

import "fmt"

// Congestion management: an ECN-style closed loop from fabric occupancy
// back to the injecting sources.
//
// The fabric side has three mechanisms, all off by default
// (CongestionConfig.Enabled):
//
//   - Marking. Every non-ejection output port carries a mark threshold at
//     MarkPct percent of its occupancy cap. Marking is a compare at
//     grant: a packet granted through a port whose O(1) occupancy (its
//     own reservation included) exceeds the threshold gets its ECNMarks
//     count incremented, piggybacked to the destination.
//   - Notification. When a marked packet is delivered, a notice carrying
//     the source node and the mark count as severity is queued, due
//     NotifyLatency cycles later — the congestion signal takes a
//     reverse-path latency to reach the source, it does not teleport.
//     Notices are made at the delivery replay and consumed at the handle
//     barrier of their due cycle (replayNotifications), both sequential
//     points, so they wait in one network-wide FIFO (Network.notices),
//     not on the sharded calendar. Delivery order is due order, and it is
//     the same at every worker count, so the OnNotify callback sequence
//     is too.
//   - Shedding. While a NIC's backlog is at or above ShedCap packets,
//     Inject refuses new packets and counts them in NumShed instead of
//     letting the queue grow to NICQueuePackets: a saturated source
//     reaches a stable, bounded operating point and the loss is explicit
//     in the statistics, never silent.
//
// The source side — the AIMD throttle that consumes OnNotify — lives in
// package traffic, keeping the fabric policy-free like the routing split.
//
// The loop's timing mirrors hardware ECN: mark at the congested queue,
// echo at the receiver, notify the sender one reverse-path latency later.
// NotifyLatency defaults to LatencyLocal+LatencyGlobal, a one-way
// worst-case path; the throttle's hold and recovery windows default to
// multiples of it so one multiplicative decrease happens per notification
// round trip, as in a per-RTT AIMD loop.

// CongestionConfig configures the congestion-management loop. The zero
// value disables it entirely: no port gets a mark threshold, no notices are
// queued, no counters move, and simulation results are bit-identical
// to a build without the subsystem. With Enabled set, zero-valued knobs
// resolve to defaults derived from the fabric configuration (Resolved).
type CongestionConfig struct {
	// Enabled turns the whole loop on: marking, notifications, source
	// throttling (package traffic) and NIC shedding.
	Enabled bool

	// MarkPct is the mark threshold as a percentage of each output
	// port's occupancy cap (default 70). Ejection channels are never
	// marked: their occupancy cap is dominated by the infinite ejection
	// credit pool, and the destination node always sinks traffic.
	MarkPct int

	// NotifyLatency is the delay in cycles from a marked packet's
	// delivery to the notification reaching its source (default
	// LatencyLocal+LatencyGlobal, a worst-case one-way path).
	NotifyLatency int

	// ShedCap is the NIC backlog, in packets, at which new injection
	// attempts are shed (counted in NumShed) instead of queued. It must
	// not exceed NICQueuePackets. Default: NICQueuePackets/4, at least
	// one packet.
	ShedCap int

	// DecreasePct is the multiplicative-decrease factor: a notification
	// cuts the source's injection rate to rate*DecreasePct/100, at most
	// once per HoldCycles (default 50).
	DecreasePct int

	// RecoverPct is the additive-increase step in percentage points of
	// line rate, applied every RecoverEvery cycles once the hold window
	// has passed (default 5).
	RecoverPct int

	// RecoverEvery is the additive-increase period in cycles (default
	// 2*NotifyLatency: one recovery step per notification round trip).
	RecoverEvery int64

	// HoldCycles is the minimum spacing between multiplicative
	// decreases, so a burst of notifications from one congestion epoch
	// cuts the rate once (default NotifyLatency).
	HoldCycles int64

	// MinRatePct floors the throttled rate so sources keep probing the
	// fabric and recover when congestion clears (default 10).
	MinRatePct int
}

// Resolved returns the configuration with every zero-valued knob replaced
// by its default, derived from the fabric configuration where the default
// is latency- or capacity-relative. A disabled configuration resolves to
// itself unchanged.
func (cc CongestionConfig) Resolved(c Config) CongestionConfig {
	if !cc.Enabled {
		return cc
	}
	if cc.MarkPct == 0 {
		cc.MarkPct = 70
	}
	if cc.NotifyLatency == 0 {
		cc.NotifyLatency = c.LatencyLocal + c.LatencyGlobal
	}
	if cc.ShedCap == 0 {
		cc.ShedCap = c.NICQueuePackets / 4
		if cc.ShedCap < 1 {
			cc.ShedCap = 1
		}
	}
	if cc.DecreasePct == 0 {
		cc.DecreasePct = 50
	}
	if cc.RecoverPct == 0 {
		cc.RecoverPct = 5
	}
	if cc.RecoverEvery == 0 {
		cc.RecoverEvery = 2 * int64(cc.NotifyLatency)
	}
	if cc.HoldCycles == 0 {
		cc.HoldCycles = int64(cc.NotifyLatency)
	}
	if cc.MinRatePct == 0 {
		cc.MinRatePct = 10
	}
	return cc
}

// validate checks a resolved configuration against the fabric it will
// run in.
func (cc CongestionConfig) validate(c Config) error {
	if cc.MarkPct < 1 || cc.MarkPct > 100 {
		return fmt.Errorf("router: congestion mark threshold %d%% outside [1,100]", cc.MarkPct)
	}
	if cc.NotifyLatency < 1 {
		return fmt.Errorf("router: congestion notify latency %d < 1", cc.NotifyLatency)
	}
	if cc.ShedCap < 1 || cc.ShedCap > c.NICQueuePackets {
		return fmt.Errorf("router: congestion shed cap %d outside [1,NICQueuePackets=%d]", cc.ShedCap, c.NICQueuePackets)
	}
	if cc.DecreasePct < 1 || cc.DecreasePct > 99 {
		return fmt.Errorf("router: congestion decrease factor %d%% outside [1,99]", cc.DecreasePct)
	}
	if cc.RecoverPct < 1 || cc.RecoverPct > 100 {
		return fmt.Errorf("router: congestion recovery step %d%% outside [1,100]", cc.RecoverPct)
	}
	if cc.RecoverEvery < 1 {
		return fmt.Errorf("router: congestion recovery period %d < 1", cc.RecoverEvery)
	}
	if cc.HoldCycles < 1 {
		return fmt.Errorf("router: congestion hold window %d < 1", cc.HoldCycles)
	}
	if cc.MinRatePct < 1 || cc.MinRatePct > 100 {
		return fmt.Errorf("router: congestion rate floor %d%% outside [1,100]", cc.MinRatePct)
	}
	return nil
}
