package router

import "testing"

// TestVCQueueRingIsFixed: the ring is sized capPhits/packetSize at
// construction and never grows — filling the queue to its phit capacity
// uses exactly the slots it was built with, and the next push trips the
// overflow check instead of reaching the ring.
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
