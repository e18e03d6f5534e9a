package router

// fifo is a growable FIFO backing NIC queues, output-port stages and the
// congestion notices. Its backing slice stays bounded under sustained
// traffic: pushes compact the dead prefix whenever it reaches the live
// region's size (amortized O(1)), so capacity stays within a few times
// the live peak, which admission bounds (NICQueuePackets records a NIC,
// BufOut/PacketSize entries an output stage).
type fifo[T any] struct {
	buf  []T
	head int
}

func (f *fifo[T]) len() int { return len(f.buf) - f.head }

// front returns the oldest entry; the fifo must not be empty.
func (f *fifo[T]) front() T { return f.buf[f.head] }

func (f *fifo[T]) push(v T) {
	if f.head > 0 && f.head >= len(f.buf)-f.head {
		var zero T
		live := copy(f.buf, f.buf[f.head:])
		for i := live; i < len(f.buf); i++ {
			f.buf[i] = zero
		}
		f.buf = f.buf[:live]
		f.head = 0
	}
	f.buf = append(f.buf, v)
}

func (f *fifo[T]) pop() T {
	var zero T
	v := f.buf[f.head]
	f.buf[f.head] = zero
	f.head++
	if f.head == len(f.buf) {
		f.buf = f.buf[:0]
		f.head = 0
	}
	return v
}

// vcQueue is one virtual channel's input buffer: a ring of packets.
// Every packet is Network.size phits, so a VC's phit capacity is a slot
// count. Capacity admission is enforced by the upstream credit counters,
// not here; the queue only asserts the invariant.
type vcQueue struct {
	pkts []*Packet // ring buffer, ringSlots long, cut from the router's one ring array
	head int32
	n    int32
}

// ringSlots is the ring size of a capPhits-phit VC: the packets of
// packetSize phits its credits admit.
func ringSlots(capPhits, packetSize int) int {
	return max(capPhits/packetSize, 1)
}

// free returns the number of free packet slots.
func (q *vcQueue) free() int32 { return int32(len(q.pkts)) - q.n }

// empty reports whether no packet is queued.
func (q *vcQueue) empty() bool { return q.n == 0 }

// len returns the number of queued packets.
func (q *vcQueue) len() int { return int(q.n) }

// headPkt returns the packet at the queue head, or nil.
func (q *vcQueue) headPkt() *Packet {
	if q.n == 0 {
		return nil
	}
	return q.pkts[q.head]
}

// push appends a packet whose head has arrived; its slot was reserved by
// upstream credits when transmission started.
func (q *vcQueue) push(p *Packet) {
	if int(q.n) == len(q.pkts) {
		panic("router: input VC overflow; upstream credit accounting is broken")
	}
	// Ring indices wrap by compare, not %: the slot count is a run-time
	// value, and a divide per hop is the dearest instruction here.
	i := int(q.head + q.n)
	if i >= len(q.pkts) {
		i -= len(q.pkts)
	}
	q.pkts[i] = p
	q.n++
}

// pop removes the head packet once its tail has left the buffer.
func (q *vcQueue) pop() *Packet {
	if q.n == 0 {
		panic("router: pop from empty VC queue")
	}
	p := q.pkts[q.head]
	q.pkts[q.head] = nil
	if q.head++; int(q.head) == len(q.pkts) {
		q.head = 0
	}
	q.n--
	return p
}
