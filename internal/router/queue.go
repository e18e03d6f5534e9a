package router

// fifo is a growable FIFO backing NIC queues and output-port stages.
// Its backing slice stays bounded under sustained traffic: pushes
// compact the dead prefix whenever it reaches the live region's size
// (amortized O(1)), and a drain drops capacity beyond shrinkCap so a
// transient burst's peak is not retained forever.
type fifo[T any] struct {
	buf       []T
	head      int
	shrinkCap int
}

func (f *fifo[T]) len() int { return len(f.buf) - f.head }

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
		if cap(f.buf) > f.shrinkCap {
			f.buf = nil
		} else {
			f.buf = f.buf[:0]
		}
		f.head = 0
	}
	return v
}

// vcQueue is one virtual channel's input buffer: a FIFO of packets with
// phit-granular occupancy accounting. Capacity admission is enforced by
// the upstream credit counters, not here; the queue only asserts the
// invariant.
type vcQueue struct {
	pkts []*Packet // ring buffer, ringSlots long, cut from the router's one ring array
	head int32
	n    int32

	capPhits  int32
	usedPhits int32
}

// ringSlots is the ring size of a capPhits-phit VC: every packet is
// packetSize phits, so push's overflow check fires before it runs out.
func ringSlots(capPhits, packetSize int) int {
	return max(capPhits/packetSize, 1)
}

// free returns the unreserved buffer space in phits.
func (q *vcQueue) free() int32 { return q.capPhits - q.usedPhits }

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

// push appends a packet whose head has arrived; its full size is
// accounted immediately (space was reserved by upstream credits when
// transmission started).
func (q *vcQueue) push(p *Packet) {
	if q.usedPhits+p.Size > q.capPhits {
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
	q.usedPhits += p.Size
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
	q.usedPhits -= p.Size
	if q.usedPhits < 0 {
		panic("router: negative VC occupancy")
	}
	return p
}
