package router

import (
	"testing"
	"unsafe"

	"cbar/internal/topology"
)

// TestHeadTableTracksQueues runs the tiny fabric hard — flooded past
// saturation, congestion marking on, a router dying and coming back and a
// global link failing under load — and audits the head table against the
// queues after every cycle, at one and two workers: CheckInvariants
// compares every slot's head pointer, unrouted bit and stored request
// with the input VC it summarises, and replays each parked head against
// its slot's request. The run must have exercised what moves a head:
// grants, fault kills of queued packets, and parking.
func TestHeadTableTracksQueues(t *testing.T) {
	for _, workers := range []int{1, 2} {
		cfg := smallCfg()
		cfg.Workers = workers
		cfg.Congestion.Enabled = true
		firstGlobal := int16(smallParams().P + smallParams().A - 1)
		cfg.Faults = FaultConfig{Events: []FaultEvent{
			{Kind: RouterDown, Router: 5, Cycle: 600},
			{Kind: LinkDown, Router: 2, Port: firstGlobal, Cycle: 900},
			{Kind: RouterUp, Router: 5, Cycle: 1500},
		}}
		n, err := Build(cfg, testMin{}, 1)
		if err != nil {
			t.Fatal(err)
		}
		everParked := false
		for cycle := 0; cycle < 3000; cycle++ {
			floodCycle(t, n) // injects, steps, CheckInvariants
			for _, r := range n.Routers {
				everParked = everParked || r.parked
			}
		}
		if n.NumDelivered == 0 || n.NumDropped == 0 || n.NumMarked == 0 || !everParked {
			t.Fatalf("workers %d: delivered %d, dropped %d, marked %d, parked %v: the run did not reach every transition",
				workers, n.NumDelivered, n.NumDropped, n.NumMarked, everParked)
		}
		conserve(t, n)
		for _, r := range n.Routers {
			if r.unroutedHeads.count != 0 {
				t.Fatalf("workers %d: router %d still counts %d unrouted heads after the drain", workers, r.ID, r.unroutedHeads.count)
			}
		}
	}
}

// testDeny is testMin with a set of packet ids Route refuses to request
// anything for.
type testDeny struct {
	testMin
	deny map[uint64]bool
}

func (a testDeny) Route(r *Router, p *Packet, port, vc int) Request {
	if a.deny[p.ID] {
		return Request{}
	}
	return a.testMin.Route(r, p, port, vc)
}

// TestStaleRequestNeverNominated: the allocator nominates from the head
// table without looking at a packet, so a request must not outlive the
// head it was stored for. A granted head's request is spent at the grant
// — it stays at the queue head while its tail streams out, and a later
// iteration or cycle must not nominate it again — and a head that leaves
// ungranted, killed by a fault, takes its still-valid request with it.
// The slot's next head here is one Route refuses, while a neighbouring VC
// of the same port keeps the port under arbitration: it must never be
// granted on what the slot held before. Fails if grant or dequeue stop
// clearing the request.
func TestStaleRequestNeverNominated(t *testing.T) {
	cfg := smallCfg()
	cfg.Speedup = 1
	alg := testDeny{deny: map[uint64]bool{2: true}}
	n, err := Build(cfg, alg, 1)
	if err != nil {
		t.Fatal(err)
	}
	r := n.Routers[0]
	dst := n.Topo.P // a node of router 1: one local hop for both sources
	check := func(when string) {
		t.Helper()
		if err := n.CheckInvariants(); err != nil {
			t.Fatalf("%s: %v", when, err)
		}
	}

	// Packets 0 (node 0, port 0) and 1 (node 1, port 1) want the same
	// output; at Speedup 1 one wins the cycle, the other keeps a valid
	// request.
	n.Inject(0, dst)
	n.Inject(1, dst)
	n.Step()
	check("after the first grant")
	won, lost := 1, 0
	if r.HeadGranted(0, 0) {
		won, lost = 0, 1
	}
	wonSlot, lostSlot := int(r.in[won].slot0), int(r.in[lost].slot0)
	if !r.HeadGranted(won, 0) || r.HeadGranted(lost, 0) || r.unroutedHeads.count != 1 {
		t.Fatalf("want exactly one of the two heads granted, have port 0 %v port 1 %v", r.HeadGranted(0, 0), r.HeadGranted(1, 0))
	}
	if r.req[wonSlot] != (headReq{}) {
		t.Fatalf("granted head's request survives its grant: %+v", r.req[wonSlot])
	}
	if !r.req[lostSlot].valid {
		t.Fatal("the losing head holds no request")
	}

	// The loser dies as a fault victim would: dequeued ungranted and
	// recycled. An injection port owes no upstream credit.
	victim := r.dequeue(lost, 0)
	if victim.ID != uint64(lost) {
		t.Fatalf("dequeued packet %d from node %d's port", victim.ID, lost)
	}
	n.recycle(victim)
	n.InFlight--
	n.NumDropped++
	if r.req[lostSlot] != (headReq{}) || r.heads[lostSlot] != noPkt || r.unroutedHeads.has(int32(lostSlot)) {
		t.Fatalf("killed head left its slot behind: req %+v head %v unrouted %v",
			r.req[lostSlot], r.heads[lostSlot], r.unroutedHeads.has(int32(lostSlot)))
	}
	check("after the kill")

	// Packet 2 is refused by Route and lands in the slot the victim left
	// (an emptied port drains into VC 0); packet 3 follows into VC 1 and
	// keeps the port requesting.
	n.Inject(lost, dst)
	n.Inject(lost, dst)
	for cycle := 0; cycle < 200; cycle++ {
		n.Step()
		check("while the refused head waits")
	}
	if h := r.HeadPacket(lost, 0); h == nil || h.ID != 2 || r.HeadGranted(lost, 0) {
		t.Fatalf("refused packet 2 is not the waiting head of its slot (head %v, granted %v)", h, r.HeadGranted(lost, 0))
	}
	if n.NumDelivered != 2 {
		t.Fatalf("delivered %d packets, want the first winner and packet 3", n.NumDelivered)
	}
}

// testGrantSpy is testMin with a callback at every grant, which runs
// after the grant has spent the slot's request and bits.
type testGrantSpy struct {
	testMin
	spy func(r *Router)
}

func (a testGrantSpy) OnGrant(r *Router, _ *Packet, _, _, _, _ int) { a.spy(r) }

// TestLaterIterationRechecksAdmission is the complement of the first half
// of TestAllocationSkipsOnlyNoOpIterations: a later allocation iteration
// must not trust routePhase's verdict. Two heads on router 0 want the
// same output VC, whose downstream buffer (BufLocal = PacketSize) has
// credit for one packet. Both are grantable after routePhase, so the
// first iteration sees both and grants one; the second must re-check the
// loser, find its request no longer admissible and drop it. Fails when
// the re-check is removed: the loser is granted on credit that is gone.
func TestLaterIterationRechecksAdmission(t *testing.T) {
	cfg := smallCfg()
	cfg.BufLocal = cfg.PacketSize
	if cfg.Speedup != 2 {
		t.Fatalf("Speedup %d, want the default 2", cfg.Speedup)
	}
	grants := 0
	var grantableAtFirst [2]bool // source ports 0 and 1, as the first grant left them
	alg := testGrantSpy{spy: func(r *Router) {
		if r.ID != 0 {
			return
		}
		if grants == 0 {
			for port := range grantableAtFirst {
				grantableAtFirst[port] = r.grantable.has(int32(r.in[port].slot0))
			}
		}
		grants++
	}}
	n, err := Build(cfg, alg, 1)
	if err != nil {
		t.Fatal(err)
	}
	r := n.Routers[0]
	dst := n.Topo.P // a node of router 1: both heads leave through one local port, on VC 0
	n.Inject(0, dst)
	n.Inject(1, dst)
	n.Step()
	if err := n.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if grants != 1 || r.HeadGranted(0, 0) == r.HeadGranted(1, 0) {
		t.Fatalf("%d grants at router 0 (port 0 %v, port 1 %v), want exactly one head granted",
			grants, r.HeadGranted(0, 0), r.HeadGranted(1, 0))
	}
	lost := 0
	if r.HeadGranted(0, 0) {
		lost = 1
	}
	if !grantableAtFirst[lost] || grantableAtFirst[1-lost] {
		t.Fatalf("grantable at the first grant: %v, want only the loser's (port %d) left", grantableAtFirst, lost)
	}
	slot := int32(r.in[lost].slot0)
	if !r.unroutedHeads.has(slot) || !r.req[slot].valid {
		t.Fatalf("the loser lost its place: unrouted %v, request %+v", r.unroutedHeads.has(slot), r.req[slot])
	}
	if r.grantable.has(slot) || r.reqPorts.has(int32(lost)) {
		t.Fatalf("the loser is still nominable: grantable %v, port in reqPorts %v", r.grantable.has(slot), r.reqPorts.has(int32(lost)))
	}
}

// TestPacketSizeClass pins the size class the Packet edits rely on: the
// destination-group memo sits in padding and the request fields left, so
// a packet is still an 80-byte allocation.
func TestPacketSizeClass(t *testing.T) {
	if sz := unsafe.Sizeof(Packet{}); sz > 80 {
		t.Fatalf("Packet is %d bytes, over the 80-byte size class", sz)
	}
}

// TestDstGroupMemo: Router.DstGroup answers Topo.GroupOfNode(p.Dst) for a
// hand-built packet (memo empty, then filled) and for a struct the
// freelist hands out again with another destination, and Router.Group is
// Topo.GroupOf(ID) for every router at tiny and Small.
func TestDstGroupMemo(t *testing.T) {
	n := buildSmall(t)
	topo, r := n.Topo, n.Routers[0]
	for dst := 0; dst < topo.Nodes; dst += 5 {
		p := Packet{Dst: int32(dst)}
		for pass := 0; pass < 2; pass++ {
			if g := r.DstGroup(&p); g != topo.GroupOfNode(dst) {
				t.Fatalf("hand-built packet to node %d, pass %d: group %d, want %d", dst, pass, g, topo.GroupOfNode(dst))
			}
		}
	}

	var first *Packet
	n.OnDeliver = func(p *Packet, _ int64) { first = p }
	near, far := topo.P, topo.Nodes-1 // group 0 and the last group
	n.Inject(0, near)
	if !n.Drain(10000) || first == nil {
		t.Fatal("first packet not delivered")
	}
	n.Inject(0, far)
	n.Step()
	p := r.HeadPacket(0, 0)
	if p != first {
		t.Fatalf("second packet %p is not the recycled struct %p", p, first)
	}
	if g := r.DstGroup(p); g != topo.GroupOfNode(far) || g == topo.GroupOfNode(near) {
		t.Fatalf("recycled packet to node %d: group %d, want %d", far, g, topo.GroupOfNode(far))
	}

	for _, params := range []topology.Params{smallParams(), {P: 4, A: 8, H: 4}} {
		n, err := Build(DefaultConfig(params), testMin{}, 1)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range n.Routers {
			if r.Group() != n.Topo.GroupOf(r.ID) {
				t.Fatalf("%v: router %d reports group %d, want %d", params, r.ID, r.Group(), n.Topo.GroupOf(r.ID))
			}
		}
	}
}
