package router

import "testing"

// newVCQueue builds a stand-alone queue the way newRouter cuts one from
// its ring array.
func newVCQueue(capPhits, packetSize int) vcQueue {
	return vcQueue{pkts: make([]*Packet, ringSlots(capPhits, packetSize))}
}

// TestVCQueueRingIsFixed: the ring is sized capPhits/packetSize at
// construction and never grows — filling the queue to its capacity uses
// exactly the slots it was built with, and the next push trips the
// overflow check instead of reaching past the ring.
func TestVCQueueRingIsFixed(t *testing.T) {
	const capPhits, size = 32, 8
	q := newVCQueue(capPhits, size)
	slots := cap(q.pkts)
	// Move the head off slot 0 so the fill wraps.
	q.push(&Packet{Size: size})
	q.pop()
	for i := 0; i < capPhits/size; i++ {
		q.push(&Packet{ID: uint64(i + 1), Size: size})
	}
	if q.free() != 0 || q.len() != capPhits/size {
		t.Fatalf("full queue: free %d len %d", q.free(), q.len())
	}
	if cap(q.pkts) != slots || len(q.pkts) != slots {
		t.Fatalf("ring resized: %d/%d slots, built with %d", len(q.pkts), cap(q.pkts), slots)
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
		if len(q.pkts) != slots {
			t.Fatalf("built %d slots, want %d", len(q.pkts), slots)
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
