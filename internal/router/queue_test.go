package router

import (
	"slices"
	"testing"
)

// testVC is a stand-alone VC queue with its own ring, standing in for
// the span of a router's ring row that Router.ring hands a queue's
// methods, and its own packet table: the ref of the k-th packet pushed
// is k, so noPkt names the table's nil.
type testVC struct {
	vcQueue
	ring []pktRef
	pkts []*Packet
}

// newVCQueue builds a stand-alone queue over a ring of the length
// Network.ringAt gives a capPhits-phit VC.
func newVCQueue(capPhits, packetSize int) *testVC {
	return &testVC{ring: make([]pktRef, ringSlots(capPhits, packetSize)), pkts: []*Packet{nil}}
}

func (q *testVC) push(p *Packet) {
	q.pkts = append(q.pkts, p)
	q.vcQueue.push(q.ring, pktRef(len(q.pkts)-1))
}
func (q *testVC) pop() *Packet     { return q.pkts[q.vcQueue.pop(q.ring)] }
func (q *testVC) headPkt() *Packet { return q.pkts[q.vcQueue.headPkt(q.ring)] }
func (q *testVC) free() int32      { return q.vcQueue.free(q.ring) }

// TestVCQueueRingIsFixed: the ring is sized capPhits/packetSize at
// construction and never grows — filling the queue to its capacity uses
// exactly the slots it was built with, and the next push trips the
// overflow check instead of reaching past the ring.
func TestVCQueueRingIsFixed(t *testing.T) {
	const capPhits, size = 32, 8
	q := newVCQueue(capPhits, size)
	slots := cap(q.ring)
	// Move the head off slot 0 so the fill wraps.
	q.push(&Packet{Size: size})
	q.pop()
	for i := 0; i < capPhits/size; i++ {
		q.push(&Packet{ID: uint64(i + 1), Size: size})
	}
	if q.free() != 0 || q.len() != capPhits/size {
		t.Fatalf("full queue: free %d len %d", q.free(), q.len())
	}
	if cap(q.ring) != slots || len(q.ring) != slots {
		t.Fatalf("ring resized: %d/%d slots, built with %d", len(q.ring), cap(q.ring), slots)
	}
	if q.headPkt().ID != 1 {
		t.Fatalf("head is packet %d after a wrapped fill", q.headPkt().ID)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("push past capPhits did not panic")
		}
	}()
	q.push(&Packet{Size: size})
}

// TestVCQueueWrapAgainstReference pins the compare-and-wrap ring
// indexing at slot counts 1, 2 and 32: a seeded push/pop stream that
// laps the ring many times pops in exactly the order of a slice FIFO.
func TestVCQueueWrapAgainstReference(t *testing.T) {
	const size = 8
	for _, slots := range []int{1, 2, 32} {
		q := newVCQueue(slots*size, size)
		if len(q.ring) != slots {
			t.Fatalf("built %d slots, want %d", len(q.ring), slots)
		}
		var ref []*Packet
		rng := newTestRand(uint64(slots))
		for step := 0; step < 50*slots+100; step++ {
			if len(ref) < slots && (len(ref) == 0 || rng()%2 == 0) {
				p := &Packet{ID: uint64(step), Size: size}
				q.push(p)
				ref = append(ref, p)
			} else {
				if q.headPkt() != ref[0] || q.pop() != ref[0] {
					t.Fatalf("%d slots, step %d: head or pop is not the reference's packet %d", slots, step, ref[0].ID)
				}
				ref = ref[1:]
			}
			if q.len() != len(ref) || q.free() != int32(slots-len(ref)) {
				t.Fatalf("%d slots, step %d: len %d free %d with %d queued", slots, step, q.len(), q.free(), len(ref))
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
