package router

import (
	"testing"
	"unsafe"

	"cbar/internal/topology"
)

// bucketEvents returns the events of sh's bucket at ring index idx,
// front to back.
func bucketEvents(sh *netShard, idx int64) []event {
	var evs []event
	for run := range sh.cal[idx].runs() {
		evs = append(evs, run...)
	}
	return evs
}

// inUse counts the chunks of sh's calendar pool that are on a bucket.
func inUse(sh *netShard) int { return sh.calPool.chunks - sh.calPool.pooled() }

// testPkt makes a packet of n's table for a hand-built event, as a drain
// of the first NIC of shard 0 would, carrying id.
func testPkt(n *Network, id uint64) pktRef {
	sh := &n.shards[0]
	n.reserve(sh, 1)
	return sh.newPacket(n, int(sh.nodeLo), nicRec{id: id}).ref
}

// recycleDelivered empties sh's delivery list the way the handle
// barrier's replay does, minus the counters and the observer.
func recycleDelivered(n *Network, sh *netShard) {
	for _, ref := range sh.delivered {
		n.recycle(n.pkt(ref))
	}
	sh.delivered = sh.delivered[:0]
}

// liveEvents counts the events scheduled on sh's calendar.
func liveEvents(sh *netShard) int {
	live := 0
	for b := range sh.cal {
		live += int(sh.cal[b].n)
	}
	return live
}

// TestCalendarAppendOrder drives the production path — scheduleFrom,
// handleShardBucket, handle — with a seeded random stream of (delay,
// event) and checks that every bucket drains in exactly the order it was
// filled, against a plain slice-per-cycle reference. The events are
// deliveries, which the handler collects in handling order on the shard;
// the sequence number rides in the probe packet's ID, and the probes go
// back to the freelist as the barrier would recycle them. Every tenth cycle
// adds a burst sized to land one bucket on a chunk boundary
// (k*chunkEvents-1, k*chunkEvents, k*chunkEvents+1).
func TestCalendarAppendOrder(t *testing.T) {
	n := buildSmall(t)
	sh := &n.shards[0]
	rng := newTestRand(7)
	const cycles = 3000
	want := make([][]uint64, cycles+n.mask+1) // per cycle: sequence numbers, append order
	seq := uint64(0)
	schedule := func(delay int64) {
		seq++
		n.scheduleFrom(sh, n.now+delay, event{kind: evDeliver, pkt: testPkt(n, seq)})
		want[n.now+delay] = append(want[n.now+delay], seq)
	}
	for ; n.now < cycles; n.now++ {
		idx := n.now & n.mask
		if quiet := n.quietCycle(idx); quiet != (len(want[n.now]) == 0) {
			t.Fatalf("cycle %d: quietCycle %v with %d events due", n.now, quiet, len(want[n.now]))
		}
		n.handleShardBucket(sh, idx)
		if len(sh.delivered) != len(want[n.now]) {
			t.Fatalf("cycle %d: drained %d events, scheduled %d", n.now, len(sh.delivered), len(want[n.now]))
		}
		for i, ref := range sh.delivered {
			if id := n.pkt(ref).ID; id != want[n.now][i] {
				t.Fatalf("cycle %d: event %d is #%d, append order has #%d", n.now, i, id, want[n.now][i])
			}
		}
		recycleDelivered(n, sh)
		if sh.cal[idx].n != 0 {
			t.Fatalf("cycle %d: drained bucket does not read empty", n.now)
		}

		for k := rng() % 40; k > 0; k-- {
			schedule(1 + int64(rng()%uint64(n.mask)))
		}
		if n.now%10 == 0 {
			at := 1 + int64(rng()%uint64(n.mask))
			target := int(1+rng()%3)*chunkEvents + int(rng()%3) - 1
			for len(want[n.now+at]) < target {
				schedule(at)
			}
		}
		if n.now%100 == 0 {
			if err := n.CheckInvariants(); err != nil {
				t.Fatal(err)
			}
			next := n.now + 1
			for len(want[next]) == 0 {
				next++
			}
			if got := n.NextEventCycle(); got != next {
				t.Fatalf("cycle %d: NextEventCycle %d, reference %d", n.now, got, next)
			}
		}
	}
}

// TestCalendarChunkReuse pins the pool's LIFO discipline: the chunk a
// drain has just released is the one the next push that needs a chunk is
// handed, and releases are stacked.
func TestCalendarChunkReuse(t *testing.T) {
	n := buildSmall(t)
	sh := &n.shards[0]
	fill := func(delay int64, count int) {
		for i := 0; i < count; i++ {
			n.scheduleFrom(sh, n.now+delay, event{kind: evDeliver, pkt: testPkt(n, 0)})
		}
	}
	fill(1, 2*chunkEvents)
	fill(2, 1)
	if inUse(sh) != 3 {
		t.Fatalf("3 chunks' worth of events took %d chunks", inUse(sh))
	}
	allocated := sh.calPool.chunks
	first := sh.cal[(n.now+1)&n.mask].head
	second := first.next
	n.now++
	n.handleShardBucket(sh, n.now&n.mask) // releases first, then second
	recycleDelivered(n, sh)
	fill(5, chunkEvents+1)
	if b := sh.cal[(n.now+5)&n.mask]; b.head != second || b.tail != first {
		t.Fatal("a two-chunk bucket filled after a two-chunk drain did not get the drained chunks, last released first")
	}
	if inUse(sh) != 3 || sh.calPool.chunks != allocated {
		t.Fatalf("%d chunks in use, %d allocated (%d before) with released chunks in the pool", inUse(sh), sh.calPool.chunks, allocated)
	}
	if err := n.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestCalendarPoolSteadyState runs the Small system at 0.5 phits/node/
// cycle of uniform traffic: once warm, the pool stops growing, and what
// it holds is within 2x of the bytes the live events need at their peak
// (the parent design held every bucket at its own peak: ~8x).
func TestCalendarPoolSteadyState(t *testing.T) {
	if testing.Short() {
		t.Skip("3000 loaded cycles at Small scale")
	}
	cfg := DefaultConfig(topology.Params{P: 4, A: 8, H: 4})
	n, err := Build(cfg, testMin{}, 5)
	if err != nil {
		t.Fatal(err)
	}
	if n.shards[0].calPool.chunks != 0 {
		t.Fatal("Build allocated calendar chunks")
	}
	rng := newTestRand(11)
	nodes := uint64(n.Topo.Nodes)
	sh := &n.shards[0]
	const warm, measured = 1500, 1500
	peak, warmChunks := 0, 0
	for cycle := 0; cycle < warm+measured; cycle++ {
		for node := 0; node < int(nodes); node++ {
			if rng()%16 == 0 { // one 8-phit packet per 16 cycles: 0.5 phits/cycle
				if dst := int(rng() % nodes); dst != node {
					n.Inject(node, dst)
				}
			}
		}
		n.Step()
		if cycle%25 == 0 {
			if live := liveEvents(sh); live > peak {
				peak = live
			}
		}
		if cycle == warm {
			warmChunks = sh.calPool.chunks
		}
	}
	if err := n.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if sh.calPool.chunks != warmChunks {
		t.Errorf("pool grew from %d to %d chunks after warm-up", warmChunks, sh.calPool.chunks)
	}
	pool := sh.calPool.chunks * 704 // a chunk's header and events
	need := peak * int(unsafe.Sizeof(event{}))
	t.Logf("pool %d chunks = %d B; peak live events %d = %d B (%.2fx)", sh.calPool.chunks, pool, peak, need, float64(pool)/float64(need))
	if peak < 5000 {
		t.Fatalf("only %d live events at peak: the network is not loaded", peak)
	}
	if pool > 2*need {
		t.Errorf("pool holds %d B for %d B of live events", pool, need)
	}
}

// TestNICPoolSteadyState runs the Small system under MIN routing and
// ADV+1 traffic (every node sends to the next group) at 1 phit/node/cycle,
// far past MIN's 1/(a*p) ceiling, so every NIC sits at NICQueuePackets:
// once warm, the NIC pool stops growing, and what it holds is within 2x
// of the bytes the queued records need (a growing FIFO held up to twice
// its peak rounded up to a power of two).
func TestNICPoolSteadyState(t *testing.T) {
	if testing.Short() {
		t.Skip("2000 saturated cycles at Small scale")
	}
	cfg := DefaultConfig(topology.Params{P: 4, A: 8, H: 4})
	n, err := Build(cfg, testMin{}, 5)
	if err != nil {
		t.Fatal(err)
	}
	sh := &n.shards[0]
	if sh.nicPool.chunks != 0 {
		t.Fatal("Build allocated NIC queue chunks")
	}
	rng := newTestRand(13)
	perGroup := uint64(n.Topo.A * n.Topo.P)
	const warm, measured = 1000, 1000
	warmChunks := 0
	for cycle := 0; cycle < warm+measured; cycle++ {
		for node := 0; node < n.Topo.Nodes; node++ {
			if rng()%8 == 0 { // one 8-phit packet per 8 cycles: 1 phit/cycle
				g := (n.Topo.GroupOfNode(node) + 1) % n.Topo.Groups
				n.Inject(node, g*int(perGroup)+int(rng()%perGroup))
			}
		}
		n.Step()
		if cycle == warm {
			warmChunks = sh.nicPool.chunks
		}
	}
	if err := n.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	live := 0
	for i := range n.nics {
		if b := n.nics[i].len(); b < cfg.NICQueuePackets-1 {
			t.Fatalf("NIC %d holds %d records, not at its bound %d: the network is not saturated", i, b, cfg.NICQueuePackets)
		}
		live += n.nics[i].len()
	}
	if sh.nicPool.chunks != warmChunks {
		t.Errorf("pool grew from %d to %d chunks after warm-up", warmChunks, sh.nicPool.chunks)
	}
	pool := sh.nicPool.chunks * int(unsafe.Sizeof(chunk[nicRec]{})+nicChunk*unsafe.Sizeof(nicRec{}))
	need := live * int(unsafe.Sizeof(nicRec{}))
	t.Logf("pool %d chunks = %d B; %d live records = %d B (%.2fx)", sh.nicPool.chunks, pool, live, need, float64(pool)/float64(need))
	if pool > 2*need {
		t.Errorf("pool holds %d B for %d B of queued records", pool, need)
	}
}

// TestCalendarFaultFilter pins the fault sweep's filter on the chunked
// buckets: survivors keep their order across chunk boundaries, the
// chunks they no longer fill go back to the pool and none is allocated, and a bucket of victims only reads as empty to quietCycle and
// NextEventCycle.
func TestCalendarFaultFilter(t *testing.T) {
	n := buildFaulty(t, FaultConfig{Events: []FaultEvent{{Kind: LinkDown, Router: 0, Port: 2, Cycle: 1 << 40}}})
	sh := &n.shards[0]
	victim := testPkt(n, 1)
	n.faults.noteVictim(n.pkt(victim))
	// Delivery events at a live router are ignored by the sweep's scan
	// phase and carry a packet, each survivor its own; size-only events
	// (noPkt: credits) always survive. The vc field numbers them.
	const survivor, sizeOnly = pktRef(1), noPkt
	var want []int8
	put := func(delay int64, p pktRef, tag int8) {
		ev := event{kind: evDeliver, vc: tag, pkt: p}
		switch p {
		case survivor:
			ev.pkt = testPkt(n, 2)
		case sizeOnly:
			ev.kind = evCredit
		}
		n.scheduleFrom(sh, n.now+delay, ev)
		if p != victim {
			want = append(want, tag)
		}
	}
	// Bucket +3: chunk 0 mixed, chunk 1 all victims, chunk 2 mixed with a
	// survivor last; bucket +5: victims only, two chunks.
	for i := 0; i < chunkEvents; i++ {
		put(3, [...]pktRef{victim, survivor, sizeOnly}[i%3], int8(i))
	}
	for i := 0; i < chunkEvents; i++ {
		put(3, victim, 0)
	}
	for i := 0; i < 5; i++ {
		put(3, [...]pktRef{survivor, victim}[i%2], int8(100+i))
	}
	for i := 0; i < chunkEvents+3; i++ {
		put(5, victim, 0)
	}
	if inUse(sh) != 5 {
		t.Fatalf("set-up: %d chunks in use; want 5", inUse(sh))
	}
	allocated := sh.calPool.chunks

	if allocs := testing.AllocsPerRun(1, n.sweepFaultVictims); allocs != 0 { // the second sweep finds no victim left to remove
		t.Fatalf("the fault sweep allocates %v times", allocs)
	}
	// The victim, out of every event, goes back to the freelist as
	// finalizeFaultVictims would recycle it, minus the counters.
	n.faults.killed = n.faults.killed[:0]
	n.recycle(n.pkt(victim))

	if err := n.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	got := bucketEvents(sh, (n.now+3)&n.mask)
	if len(got) != len(want) {
		t.Fatalf("%d events survive, want %d", len(got), len(want))
	}
	for i, ev := range got {
		if ev.vc != want[i] || ev.pkt == victim {
			t.Fatalf("survivor %d is tag %d (victim %v), want tag %d", i, ev.vc, ev.pkt == victim, want[i])
		}
	}
	if used := inUse(sh); used != 1 || sh.calPool.chunks != allocated {
		t.Fatalf("%d chunks in use, %d allocated; want 1 (the %d survivors fit one chunk) of %d", used, sh.calPool.chunks, len(want), allocated)
	}
	if sh.cal[(n.now+5)&n.mask].n != 0 {
		t.Fatal("all-victim bucket does not read empty")
	}
	if next := n.NextEventCycle(); next != n.now+3 {
		t.Fatalf("NextEventCycle %d, want %d", next, n.now+3)
	}
	n.now += 5
	if !n.quietCycle(n.now & n.mask) {
		t.Fatal("cycle of the all-victim bucket is not quiet")
	}
	n.now -= 2
	if n.quietCycle(n.now & n.mask) {
		t.Fatal("cycle of the surviving events reads quiet")
	}
}
