package router

import "iter"

// chunkQueue is a FIFO held in fixed-size chunks from a chunkPool: the
// NIC queues and calendar buckets take theirs from their shard's pools,
// the congestion notices from one pool of the network's. Its n entries
// run from head.buf[off] through the chunks that follow to the tail,
// every chunk between them full, and room more fit in the tail; an
// empty queue holds no chunk and has no room. A chunk goes back to the
// pool as soon as its last entry is read, and the pool is a stack, so
// the next chunk a push needs is the one most recently read: a queue
// costs its live entries plus one partly read and one partly filled
// chunk, whatever its peak was, and a NIC that never queues more than a
// chunk's worth never holds more. The zero value is the empty queue.
// Entries are not cleared when read, so a pooled chunk may hold stale
// copies (the calendar's packets, which are pooled too).
type chunkQueue[T any] struct {
	head, tail *chunk[T]
	off, room  int16 // a chunk holds at most 1<<15 - 1 entries
	n          int32
}

// chunk is one run of a chunkQueue's storage, cut from its pool's batch.
type chunk[T any] struct {
	next *chunk[T] // following chunk of the queue or the pool; stale in a tail chunk
	buf  []T       // the pool's chunk length
}

// chunkPool is the stack of free chunks its queues share, each of size
// entries. When it is empty it allocates chunkBatch chunks at once —
// their headers in one array and their entries in another — and never a
// slab grown by append, which would leave its outgrown copies as garbage
// at the peak; nothing is allocated before the first push. A pool serves
// the queues of one shard, or the network's sequential points, so it is
// never touched by two goroutines in one section.
type chunkPool[T any] struct {
	free   *chunk[T]
	size   int32
	chunks int // allocated so far: pooled or on a queue
}

// chunkBatch is how many chunks an empty pool allocates at once: 22 KB
// of calendar chunks, 13 KB of NIC queue chunks, 9 KB of notice chunks.
const chunkBatch = 32

// get pops a free chunk, allocating a batch when there is none.
func (p *chunkPool[T]) get() *chunk[T] {
	if p.free == nil {
		p.grow()
	}
	c := p.free
	p.free = c.next
	return c
}

func (p *chunkPool[T]) grow() {
	hdrs, ents := make([]chunk[T], chunkBatch), make([]T, chunkBatch*int(p.size))
	for i := range hdrs {
		hdrs[i] = chunk[T]{next: p.free, buf: cut(&ents, int(p.size))}
		p.free = &hdrs[i]
	}
	p.chunks += len(hdrs)
}

// put returns a chunk that is on no queue to the pool.
func (p *chunkPool[T]) put(c *chunk[T]) { c.next, p.free = p.free, c }

// pooled counts the free chunks.
func (p *chunkPool[T]) pooled() int {
	k := 0
	for c := p.free; c != nil && k <= p.chunks; c = c.next {
		k++
	}
	return k
}

func (q *chunkQueue[T]) len() int { return int(q.n) }

// front returns the oldest entry; the queue must not be empty.
func (q *chunkQueue[T]) front() T { return q.head.buf[q.off] }

// push appends *v, extending the queue by a chunk of p when its tail is
// full (or it has none).
func (q *chunkQueue[T]) push(p *chunkPool[T], v *T) {
	if q.room == 0 {
		q.extend(p)
	}
	q.store(v)
}

// store is push's fast path: it stores *v into the tail chunk, which must
// have room. It fits the inliner's budget, so a caller that tests room
// and calls extend itself (scheduleFrom) pays no call per event. The
// entry comes by pointer: passed by value to a call that is not inlined,
// a 12-byte calendar event would be split into registers and
// reassembled on the stack, a store-forwarding stall on the engine's
// hottest path.
func (q *chunkQueue[T]) store(v *T) {
	t := q.tail.buf
	t[len(t)-int(q.room)] = *v
	q.room--
	q.n++
}

// extend links a chunk of p to the tail of q, which has none or a full one.
func (q *chunkQueue[T]) extend(p *chunkPool[T]) {
	c := p.get()
	if q.n == 0 {
		q.head, q.off = c, 0
	} else {
		q.tail.next = c
	}
	q.tail, q.room = c, int16(len(c.buf))
}

// pop removes and returns the oldest entry, handing its chunk back to p
// once it is read out; the queue must not be empty.
func (q *chunkQueue[T]) pop(p *chunkPool[T]) T {
	c := q.head
	v := c.buf[q.off]
	q.off++
	q.n--
	if q.n == 0 {
		*q = chunkQueue[T]{}
		p.put(c)
	} else if int(q.off) == len(c.buf) {
		q.head, q.off = c.next, 0
		p.put(c)
	}
	return v
}

// runs yields the queue's entries front to back, as the run each chunk
// holds, leaving the queue as it is.
func (q *chunkQueue[T]) runs() iter.Seq[[]T] {
	return func(yield func([]T) bool) {
		c, off := q.head, int(q.off)
		for left := int(q.n); left > 0; c, off = c.next, 0 {
			run := c.buf[off:min(len(c.buf), off+left)]
			if !yield(run) {
				return
			}
			left -= len(run)
		}
	}
}

// drain empties the queue, yielding its entries front to back as runs
// (like runs) and handing each chunk back to p once its run is yielded,
// so what the caller pushes onto other queues of p refills the chunk
// just read while it is in cache. The caller must not push onto this
// queue meanwhile. A drain broken off still empties the queue.
func (q *chunkQueue[T]) drain(p *chunkPool[T]) iter.Seq[[]T] {
	return func(yield func([]T) bool) {
		c, off, left := q.head, int(q.off), int(q.n)
		*q = chunkQueue[T]{}
		for more := true; left > 0; off = 0 {
			run := c.buf[off:min(len(c.buf), off+left)]
			if more {
				more = yield(run)
			}
			left -= len(run)
			next := c.next
			p.put(c)
			c = next
		}
	}
}

// chunksHeld counts the chunks on the queue.
func (q *chunkQueue[T]) chunksHeld() int {
	k := 0
	for range q.runs() {
		k++
	}
	return k
}

// filter removes the entries drop reports, keeping the rest in order:
// the survivors move up in place, over the chain they were read from,
// and the chunks they no longer reach go back to p. It allocates
// nothing, and a queue that loses every entry is left empty.
func (q *chunkQueue[T]) filter(p *chunkPool[T], drop func(*T) bool) {
	if q.n == 0 {
		return
	}
	tail := q.tail
	w, at, kept := q.head, int(q.off), int32(0) // the next survivor goes to w.buf[at]
	for run := range q.runs() {
		for i := range run {
			if drop(&run[i]) {
				continue
			}
			if at == len(w.buf) {
				w, at = w.next, 0
			}
			w.buf[at] = run[i]
			at++
			kept++
		}
	}
	first := w.next
	if kept == 0 {
		first = q.head
		*q = chunkQueue[T]{}
	} else {
		q.tail, q.room, q.n = w, int16(len(w.buf)-at), kept
		if w == tail {
			return
		}
	}
	for c := first; ; {
		next := c.next
		p.put(c)
		if c == tail {
			return
		}
		c = next
	}
}

// vcQueue is one virtual channel's input buffer: a FIFO linked through
// its packets (Packet.next), head to tail. Its head is the slot's entry
// of the head table (Router.heads), so the queue itself holds only its
// tail and its count, and a VC reserves nothing for the packets its
// credits would admit but it does not hold. Every packet is Network.size
// phits, so a VC's phit capacity is a packet count (Network.slotCap).
// Capacity admission is enforced by the upstream credit counters, not
// here; Router.enqueue, which links a packet behind the tail, only
// asserts the invariant, and Router.dequeue follows the head's link.
type vcQueue struct {
	tail pktRef // noPkt when empty
	n    int16  // a VC holds at most 1<<15 - 1 packets (Config.Validate)
}

// ringIndex is the index of entry i, i < size, of a ring of size slots
// whose oldest entry is at head. It wraps by compare, not %: the slot
// count is a run-time value, and a divide per hop is the dearest
// instruction here.
func ringIndex(head int16, i, size int) int {
	if i += int(head); i >= size {
		i -= size
	}
	return i
}

// outRing is an output stage: the granted packets past the pipeline,
// waiting for the link, each with its downstream VC. It is a fixed ring
// over a span of its router's row, the port's Network.stageLen entries
// of Router.stages (Router.stageRing) that outFree admits; the row is
// cut only at the router's first output push (Router.cutStages), and
// until then every stage is empty.
type outRing struct {
	head, n int16 // a stage holds at most 1<<15 - 1 entries (Config.Validate)
}

func (q *outRing) len() int { return int(q.n) }

func (q *outRing) push(buf []outEntry, e outEntry) {
	if int(q.n) == len(buf) {
		panic("router: output stage overflow; output-buffer accounting is broken")
	}
	buf[ringIndex(q.head, int(q.n), len(buf))] = e
	q.n++
}

// at returns the i-th staged entry from the oldest, i < len.
func (q *outRing) at(buf []outEntry, i int) outEntry { return buf[ringIndex(q.head, i, len(buf))] }

// pop removes the oldest entry; the stage must not be empty. The slot
// keeps its stale entry: only the n entries from head on are read.
func (q *outRing) pop(buf []outEntry) outEntry {
	e := buf[q.head]
	if q.head++; int(q.head) == len(buf) {
		q.head = 0
	}
	q.n--
	return e
}
