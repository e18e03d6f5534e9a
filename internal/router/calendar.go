package router

// The event calendar: per shard, one chunkQueue bucket per slot of the
// ring (indexed by cycle & Network.mask), its chunks from the shard's
// calendar pool (netShard.calPool). It carries fabric events only: the
// congestion notices, made and consumed at sequential points, wait in
// Network.notices instead. A bucket is appended to at its tail and
// drained front to back, so events leave it in exactly the order they
// were scheduled — the one ordering the engine relies on. A chunk
// returns to the pool as soon as it has been read and the pool is a
// stack, so the next chunk a push needs is the one most recently read: a
// loaded run cycles through its live events plus one partly filled chunk
// per occupied bucket, not through every bucket grown to its own peak.
// The pool allocates chunkBatch chunks at a time when it is empty — only
// while the live-event peak is still rising, never at Build — as the NIC
// queues' pool (nicChunk records a chunk) and the notices' do.

// chunkEvents sizes a calendar chunk at 704 B: a 32-byte header and 56
// 12-byte events.
const chunkEvents = 56

// calBucket is one ring slot's event FIFO.
type calBucket = chunkQueue[event]

// push appends ev to the bucket at ring index idx. scheduleFrom, the hot
// caller, spells it out: this body is over the inliner's budget, its
// store alone is not.
func (sh *netShard) push(idx int64, ev *event) {
	q := &sh.cal[idx]
	if q.room == 0 {
		q.extend(&sh.calPool)
	}
	q.store(ev)
}

// isVictim reports whether ev carries a packet of a fault's victim set.
func (n *Network) isVictim(ev *event) bool { return ev.pkt != noPkt && n.pkt(ev.pkt).killed }

// filterBucket removes the events that carry a fault victim from sh's
// bucket at ring index idx, keeping the rest in order. Nothing is
// allocated, the chunks the survivors no longer fill go back to the
// pool, and a bucket that loses every event is left empty.
func (n *Network) filterBucket(sh *netShard, idx int64) { sh.cal[idx].filter(&sh.calPool, n.isVictim) }
