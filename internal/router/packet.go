package router

import "fmt"

// Packet is the unit of switching: the simulator is virtual cut-through,
// so buffers, credits and links are sized and timed in phits but
// allocation and routing decisions happen once per packet. A packet lives
// in exactly one input queue (or output stage) at a time, so per-hop
// transient state can live directly on the struct — except a head's
// allocation request and whether it was granted, which the router reads
// without the packet (Router.req, Router.unroutedHeads). It comes into being
// when its NIC record drains into an injection VC (nicRec, in
// network.go): a packet still waiting at its source is a record, not a
// Packet.
//
// Packets live in the network's packet table (Network.pkts), and the
// fabric holds none by pointer: rings, the head table, output stages,
// calendar and mailbox events and the per-shard lists name a packet by
// its 4-byte pktRef, which Network.pkt resolves. The algorithm hooks,
// HeadPacket, OnDeliver and OnDrop see *Packet.
//
// Delivered packets are recycled through the shards' freelists: a
// packet's fields are stable until the OnDeliver callback for it
// returns, after which the struct may be reused by a later NIC drain.
// Observers that need a packet's data past delivery must copy it.
type Packet struct {
	ID  uint64
	Src int32 // source node
	Dst int32 // destination node

	DstRouter int32 // cached router of Dst
	// Size is the packet's length in phits, Config.PacketSize for every
	// packet. It is kept for observers; the fabric itself reads the one
	// size its Network holds.
	Size int32

	GenTime int64 // cycle the packet was created at the source NIC

	// --- path state, maintained by the routing algorithm ---

	// Inter is the Valiant intermediate node (-1 when unused). While
	// ToInter is true the packet routes minimally toward Inter, then
	// minimally to Dst.
	Inter   int32
	ToInter bool

	// Decided marks source-routed algorithms' one-time decision (PB).
	Decided bool

	// GlobalMisroute records that the packet took (or is committed to)
	// a nonminimal global hop, for Figure 7b statistics and to forbid a
	// second global misroute.
	GlobalMisroute bool

	// LocalMisroutes counts nonminimal local hops taken.
	LocalMisroutes int8

	// LocalMisThisGroup forbids a second local misroute within the
	// currently visited group; the algorithm resets it on group change
	// using LastGroup.
	LocalMisThisGroup bool
	// dstGroup memoises Router.DstGroup: the destination's group plus
	// one, so zero means "not computed yet" and a hand-built
	// Packet{Dst: x} is correct. (It sits in the padding before LastGroup.)
	dstGroup  int16
	LastGroup int32

	// Hop counters drive the ascending-VC deadlock avoidance scheme.
	LocalHops  int8
	GlobalHops int8
	TotalHops  int8
	// LocalHopsGroup counts local hops taken within the currently
	// visited group; it resets on every group change and positions the
	// packet on the ascending-VC ladder together with GlobalHops.
	LocalHopsGroup int8

	// --- contention bookkeeping (set by algorithm hooks) ---

	// CountedPort is the output port whose contention counter this
	// packet is currently holding incremented at its present router
	// (-1 when none).
	CountedPort int16
	// CountedLink is the ECtN partial-array index this packet holds
	// incremented (-1 when none).
	CountedLink int16

	// ECNMarks counts the congestion-marked output ports this packet was
	// granted through (saturating at 127). Always zero unless congestion
	// management is enabled; on delivery it becomes the severity of the
	// notification echoed to the source (see congestion.go).
	ECNMarks int8

	// FaultDetours counts the grants this packet won through the fault
	// escape path (its requested port was dead and faultAdjust redirected
	// it); at maxFaultDetours the packet is dropped (see faultAdjust).
	FaultDetours int8

	// Attempt is the retransmission attempt number: 0 for an original
	// injection, k for the k-th retry of a dropped packet (see the
	// RetryLimit fault mode).
	Attempt int8

	// --- per-queue transient state (reset on every enqueue) ---

	// minOut memoises Router.MinimalOut for the current queue: the
	// minimal output port plus one, so the zero value means "not computed
	// yet" and a hand-built Packet{} is correct. (Declared ahead of
	// TailArrive so it sits in the padding after Attempt: the struct
	// stays in its 80-byte size class.)
	minOut int16
	// TailArrive is the cycle the packet's tail finishes arriving into
	// its current input queue; the tail cannot leave earlier.
	TailArrive int64
	// HeadSeen records that the head-of-queue hooks fired at this
	// router.
	HeadSeen bool
	// killed marks a victim of the fault application in progress
	// (faults.go), between its discovery and its recycling; newPacket
	// clears it on reuse.
	killed bool
	// ref is the packet's own name in the packet table, set by newPacket
	// (it sits in the tail padding: the struct stays 80 bytes).
	ref pktRef
}

// pktRef names a packet of the network's packet table: ref>>packetShift
// is its chunk in Network.pkts and ref&(packetChunk-1) its place in the
// chunk. The table's chunk 0 is never made, so noPkt, the zero ref, names
// no packet, and a zeroed ring slot, head or event holds none.
type pktRef uint32

// noPkt is the ref of no packet.
const noPkt pktRef = 0

// packetShift sizes a chunk of the packet table: packetChunk packets, the
// number a shard adds at once when its reserve runs short
// (Network.reserve).
const (
	packetShift = 8
	packetChunk = 1 << packetShift
)

// pkt resolves ref, which must name a packet: two dependent loads, the
// chunk pointer and the packet.
func (n *Network) pkt(ref pktRef) *Packet { return &n.pkts[ref>>packetShift][ref&(packetChunk-1)] }

// resetQueueState prepares per-queue transient state on enqueue.
func (p *Packet) resetQueueState(tailArrive int64) {
	p.TailArrive = tailArrive
	p.HeadSeen = false
	p.minOut = 0
	p.CountedPort = -1
	p.CountedLink = -1
}

func (p *Packet) String() string {
	return fmt.Sprintf("pkt#%d %d->%d (hops l%d g%d, mis g=%v l=%d)",
		p.ID, p.Src, p.Dst, p.LocalHops, p.GlobalHops, p.GlobalMisroute, p.LocalMisroutes)
}
