package router

import (
	"slices"
	"testing"
)

// testVC is a real router's input VC: the first global VC of router 0
// of a network built with global VCs of `capacity` packets, filled
// through Router.enqueue and drained through Router.dequeue with packets
// of the network's own table. A popped packet goes back to the test's
// pool and is pushed again as a later packet, its stale queue link
// included, as a packet moving on to its next router would be.
type testVC struct {
	r              *Router
	port, vc, slot int
	pool           []*Packet
	pushed         uint64
}

func newVCQueue(t *testing.T, capacity int) *testVC {
	t.Helper()
	cfg := smallCfg()
	cfg.BufGlobal = capacity * cfg.PacketSize
	n, err := Build(cfg, testMin{}, 1)
	if err != nil {
		t.Fatal(err)
	}
	r := n.Routers[0]
	for slot, port := range n.slotPort {
		if r.in[port].kind == Global {
			return &testVC{r: r, port: int(port), vc: int(n.slotVC[slot]), slot: slot}
		}
	}
	t.Fatal("no global input VC")
	return nil
}

// push enqueues the next packet, its ID the count of pushes so far.
func (q *testVC) push() *Packet {
	var p *Packet
	if k := len(q.pool); k > 0 {
		p, q.pool = q.pool[k-1], q.pool[:k-1]
	} else {
		n := q.r.net
		n.reserve(q.r.shard, 1)
		p = q.r.shard.newPacket(n, 0, nicRec{dst: 1})
	}
	q.pushed++
	p.ID = q.pushed
	q.r.enqueue(p, q.port, q.vc)
	return p
}

func (q *testVC) pop() *Packet {
	p := q.r.dequeue(q.port, q.vc)
	q.pool = append(q.pool, p)
	return p
}

func (q *testVC) head() *Packet { return q.r.HeadPacket(q.port, q.vc) }
func (q *testVC) len() int      { return q.r.QueuedPackets(q.port, q.vc) }
func (q *testVC) empty() bool   { return q.len() == 0 }
func (q *testVC) free() int     { return int(q.r.net.slotCap[q.slot]) - q.len() }

// check is the audit's walk of the queue's chain (checkQueue).
func (q *testVC) check() error {
	return q.r.checkQueue(q.slot, func(int, pktRef) error { return nil })
}

// TestVCQueueRingIsFixed: a VC queue's capacity is its slot's slotCap,
// fixed at Build, and the queue keeps no ring: filling it to capacity
// links exactly that many packets from its head table entry to its tail,
// and the next push trips the overflow check instead of linking one more.
func TestVCQueueRingIsFixed(t *testing.T) {
	const capacity = 4
	q := newVCQueue(t, capacity)
	// Start from a queue that has held a packet.
	q.push()
	q.pop()
	var first, last *Packet
	for i := range capacity {
		last = q.push()
		if i == 0 {
			first = last
		}
	}
	if q.free() != 0 || q.len() != capacity {
		t.Fatalf("full queue: free %d len %d", q.free(), q.len())
	}
	if q.head() != first || q.r.net.pkt(q.r.vqs[q.slot].tail) != last {
		t.Fatalf("head %v tail %v after the fill, want %v and %v", q.head(), q.r.net.pkt(q.r.vqs[q.slot].tail), first, last)
	}
	if err := q.check(); err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("push past the capacity did not panic")
		}
	}()
	q.push()
}

// TestVCQueueWrapAgainstReference pins the linked queue at capacities 1,
// 2 and 32: a seeded push/pop stream that cycles packets through the
// queue many times, each popped packet pushed again later with its stale
// link, pops in exactly the order of a slice FIFO, and the queue's chain
// passes the audit's walk (checkQueue) after every step.
func TestVCQueueWrapAgainstReference(t *testing.T) {
	for _, capacity := range []int{1, 2, 32} {
		q := newVCQueue(t, capacity)
		if int(q.r.net.slotCap[q.slot]) != capacity {
			t.Fatalf("built a capacity of %d packets, want %d", q.r.net.slotCap[q.slot], capacity)
		}
		var ref []uint64
		rng := newTestRand(uint64(capacity))
		for step := 0; step < 50*capacity+100; step++ {
			if len(ref) < capacity && (len(ref) == 0 || rng()%2 == 0) {
				ref = append(ref, q.push().ID)
			} else {
				if q.head().ID != ref[0] || q.pop().ID != ref[0] {
					t.Fatalf("capacity %d, step %d: head or pop is not the reference's packet %d", capacity, step, ref[0])
				}
				ref = ref[1:]
			}
			if q.len() != len(ref) || q.free() != capacity-len(ref) {
				t.Fatalf("capacity %d, step %d: len %d free %d with %d queued", capacity, step, q.len(), q.free(), len(ref))
			}
			if err := q.check(); err != nil {
				t.Fatalf("capacity %d, step %d: %v", capacity, step, err)
			}
		}
	}
}

// TestChunkQueueAgainstSlice is the model test of the chunked FIFO: a
// calendar bucket whose pool cuts chunks of 1, 3 or chunkEvents events,
// driven by a seeded random interleaving of push, pop and filterBucket,
// holds exactly what a plain slice does after every operation, and every
// chunk its pool allocated is on the bucket or pooled, the bucket holding
// no more chunks than its events need plus a partly read head. Pops that
// empty the head chunk while later chunks stay, filters over a partly
// read head (when a chunk holds more than one event) and filters that
// drop every event are each required to happen.
func TestChunkQueueAgainstSlice(t *testing.T) {
	// A network of one chunk, for isVictim to resolve the victim's ref.
	n := &Network{pkts: []*[packetChunk]Packet{nil, {{killed: true}}}}
	victim := pktRef(packetChunk)
	for _, size := range []int32{1, 3, chunkEvents} {
		sh := &netShard{cal: make([]calBucket, 1), calPool: chunkPool[event]{size: size}}
		q := &sh.cal[0]
		var ref []event
		rng := newTestRand(uint64(size))
		seq := int32(0)
		var headEmptied, midFilters, dropAll int
		for step := 0; step < 20000; step++ {
			switch r := rng() % 16; {
			case r < 9 || len(ref) == 0:
				for k := rng() % (2 * uint64(size)); k < 2*uint64(size); k++ {
					ev := event{router: seq}
					if rng()%3 == 0 {
						ev.pkt = victim
					}
					seq++
					sh.push(0, &ev)
					ref = append(ref, ev)
				}
			case r < 14:
				for k := rng()%uint64(len(ref)) + 1; k > 0; k-- {
					if q.len() > 1 && int(q.off) == len(q.head.buf)-1 {
						headEmptied++
					}
					if got := q.pop(&sh.calPool); got != ref[0] {
						t.Fatalf("size %d, step %d: popped event %d, want %d", size, step, got.router, ref[0].router)
					}
					ref = ref[1:]
				}
			default:
				if q.off > 0 {
					midFilters++
				}
				if !slices.ContainsFunc(ref, func(ev event) bool { return !n.isVictim(&ev) }) {
					dropAll++
				}
				n.filterBucket(sh, 0)
				ref = slices.DeleteFunc(ref, func(ev event) bool { return n.isVictim(&ev) })
			}
			var got []event
			for run := range q.runs() {
				got = append(got, run...)
			}
			if q.len() != len(ref) || !slices.Equal(got, ref) {
				t.Fatalf("size %d, step %d: bucket holds %d events %v, slice %d", size, step, q.len(), got, len(ref))
			}
			if len(ref) > 0 && q.front() != ref[0] {
				t.Fatalf("size %d, step %d: front is event %d, want %d", size, step, q.front().router, ref[0].router)
			}
			held := q.chunksHeld()
			if err := checkPool("model", &sh.calPool, held); err != nil {
				t.Fatalf("size %d, step %d: %v", size, step, err)
			}
			if most := (len(ref)+int(size)-1)/int(size) + 1; held > most {
				t.Fatalf("size %d, step %d: %d events on %d chunks of %d", size, step, len(ref), held, size)
			}
		}
		t.Logf("size %d: %d head chunks emptied mid-bucket, %d filters over a partly read head, %d that drop every event; %d chunks allocated",
			size, headEmptied, midFilters, dropAll, sh.calPool.chunks)
		if headEmptied == 0 || (midFilters == 0 && size > 1) || dropAll == 0 {
			t.Errorf("size %d: a case went unexercised", size)
		}
	}
}
