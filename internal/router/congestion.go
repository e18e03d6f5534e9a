package router

// Congestion management: an ECN-style closed loop from fabric occupancy
// back to the injecting sources.
//
// The fabric side has three mechanisms, all off by default
// (CongestionConfig.Enabled). Their parameters are fixed, derived from
// the fabric configuration where they are latency- or capacity-relative:
//
//   - Marking. Every non-ejection port class carries a mark threshold at
//     70 % of its occupancy cap (portClass.markTh, set in newPortClass).
//     Marking is a compare at grant: a packet granted through a port
//     whose O(1) occupancy (its own reservation included) exceeds the
//     threshold gets its ECNMarks count incremented, piggybacked to the
//     destination. Ejection channels are never marked: their occupancy
//     cap is dominated by the infinite ejection credit pool, and the
//     destination node always sinks traffic.
//   - Notification. When a marked packet is delivered, a notice carrying
//     the source node and the mark count as severity is queued, due
//     Config.NotifyDelay() cycles later — the congestion signal takes a
//     reverse-path latency to reach the source, it does not teleport.
//     Notices are made at the delivery replay and consumed at the handle
//     barrier of their due cycle (replayNotifications), both sequential
//     points, so they wait in one network-wide FIFO (Network.notices),
//     not on the sharded calendar. Delivery order is due order, and it is
//     the same at every worker count, so the OnNotify callback sequence
//     is too.
//   - Shedding. While a NIC's backlog is at or above a quarter of
//     NICQueuePackets (at least one packet; Network.shedCap), Inject
//     refuses new packets and counts them in NumShed instead of letting
//     the queue grow to NICQueuePackets: a saturated source reaches a
//     stable, bounded operating point and the loss is explicit in the
//     statistics, never silent.
//
// The source side — the AIMD throttle that consumes OnNotify, with its
// decrease, recovery and floor constants — lives in package traffic,
// keeping the fabric policy-free like the routing split.
//
// The loop's timing mirrors hardware ECN: mark at the congested queue,
// echo at the receiver, notify the sender one reverse-path latency later.
// The notification delay is LatencyLocal+LatencyGlobal, a one-way
// worst-case path; the throttle's hold and recovery windows are one and
// two of it, so one multiplicative decrease happens per notification
// round trip, as in a per-RTT AIMD loop.

// CongestionConfig switches the congestion-management loop. The zero
// value disables it entirely: no port gets a mark threshold, no notices are
// queued, no counters move, and simulation results are bit-identical
// to a build without the subsystem.
type CongestionConfig struct {
	// Enabled turns the whole loop on: marking, notifications, source
	// throttling (package traffic) and NIC shedding.
	Enabled bool
}

// NotifyDelay is the delay in cycles from a marked packet's delivery to
// its notice reaching the source: LatencyLocal+LatencyGlobal, a
// worst-case one-way path.
func (c Config) NotifyDelay() int64 { return int64(c.LatencyLocal + c.LatencyGlobal) }
