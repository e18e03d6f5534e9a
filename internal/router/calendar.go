package router

// The event calendar: per shard, one FIFO bucket per slot of the ring
// (indexed by cycle & Network.mask), each a chain of fixed-size event
// chunks from the shard's pool. It carries fabric events only: the
// congestion notices, made and consumed at sequential points, wait in
// Network.notices instead. A bucket is appended to at its tail and
// read front to back, so events leave it in exactly the order they were
// scheduled — the one ordering the engine relies on. A chunk returns to
// the pool as soon as it has been read and the pool is a stack, so the
// next chunk a push needs is the one most recently read: a loaded run
// cycles through its live events plus one partly filled chunk per
// occupied bucket, not through every bucket grown to its own peak.
// Chunks are allocated one by one when the pool is empty — only while
// the live-event peak is still rising, never at Build — because a slab
// grown by append leaves its outgrown copies as garbage at that peak.

// chunkEvents sizes an eventChunk at 680 B (a pointer and 42 16-byte
// events), in the 704-byte malloc size class.
const chunkEvents = 42

type eventChunk struct {
	next *eventChunk // following chunk of the bucket or the pool; stale in a tail chunk
	ev   [chunkEvents]event
}

// calBucket is one ring slot's event FIFO: n events in the chunks from
// head to tail, every chunk but the tail full, so a reader takes
// min(left, chunkEvents) events per chunk. The zero value is the empty
// bucket (head and tail then mean nothing).
type calBucket struct {
	head, tail *eventChunk
	n          int32
}

// push appends ev to the bucket at ring index idx.
func (sh *netShard) push(idx int64, ev event) {
	b := &sh.cal[idx]
	at := b.n % chunkEvents
	if at == 0 {
		sh.extend(b)
	}
	b.tail.ev[at] = ev
	b.n++
}

// extend links a chunk to the tail of b, whose chunks are all full: the
// most recently released one, or a new one.
func (sh *netShard) extend(b *calBucket) {
	c := sh.freeChunks
	if c != nil {
		sh.freeChunks = c.next
	} else {
		c = new(eventChunk)
		sh.numChunks++
	}
	if b.n == 0 {
		b.head = c
	} else {
		b.tail.next = c
	}
	b.tail = c
}

// release returns a chunk that is on no bucket's chain to the pool.
func (sh *netShard) release(c *eventChunk) { c.next, sh.freeChunks = sh.freeChunks, c }

// isVictim reports whether ev carries a packet of a fault's victim set.
func (ev *event) isVictim() bool { return ev.pkt != nil && ev.pkt.killed }

// filterBucket removes the events that carry a fault victim from the
// bucket at ring index idx, keeping the rest in order: the chain is
// taken off and its survivors pushed back. Each chunk is released
// before its survivors are pushed, so the pushes refill the chunks just
// read, nothing is allocated here, and a bucket that loses every event
// is left empty.
func (sh *netShard) filterBucket(idx int64) {
	next, left := sh.cal[idx].head, sh.cal[idx].n
	sh.cal[idx] = calBucket{}
	for ; left > 0; left -= chunkEvents {
		c := *next // a copy (on the stack): release and the pushes below overwrite the original
		sh.release(next)
		for i := range c.ev[:min(left, chunkEvents)] {
			if !c.ev[i].isVictim() {
				sh.push(idx, c.ev[i])
			}
		}
		next = c.next
	}
}
