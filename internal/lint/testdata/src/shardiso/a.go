// Package shardiso exercises the shardisolation analyzer: every write
// reachable from a parallel root must target provably shard-local state
// or flow through a registered conduit; there is no annotation to excuse
// one. The fixture config (shardiso_test.go) registers Net as
// globally shared, Net.routers as a shard table, Pkt.dst as a
// cross-shard field, Net.send as the conduit and Topo.routerOf as
// index-preserving.
package shardiso

// Pkt is an in-flight packet; dst points across the shard boundary.
type Pkt struct {
	dst  int
	hops int
}

// Shard is one worker's own state.
type Shard struct {
	id    int
	queue []*Pkt
}

// Router is an element of the Net.routers shard table.
type Router struct {
	occ int
}

// Topo provides the registered index-preserving accessor.
type Topo struct{ radix int }

func (t Topo) routerOf(node int) int { return node / t.radix }

// Net is the registered globally-shared type.
type Net struct {
	routers []*Router
	total   int
}

var dropped int

// stepShard is a parallel root: sh and id are the worker's own.
func (n *Net) stepShard(sh *Shard, id int) {
	sh.queue = sh.queue[:0] // ok: shard-local receiver state
	r := n.routers[id]      // ok: shard table indexed by the shard's own id
	r.occ++
	n.total++ // want `write to n\.total is not provably shard-local`
	dropped++ // want `write to package-level variable dropped is not provably shard-local`
	n.count()
}

// handle is a parallel root handed one of this shard's packets.
func (n *Net) handle(sh *Shard, p *Pkt, t Topo) {
	p.hops++ // ok: the packet is shard-owned
	mine := n.routers[t.routerOf(sh.id)]
	mine.occ++ // ok: index-preserving accessor over the shard's own id
	peer := n.routers[p.dst]
	peer.occ++ // want `write to peer\.occ is not provably shard-local`
	n.send(p.dst)
	n.leak(p.dst)
}

// send is the registered cross-shard conduit: its body is the reviewed
// channel and is not analyzed.
func (n *Net) send(dst int) {
	n.routers[dst].occ++
}

// leak launders a cross-shard index through an innocent-looking
// parameter: the call site in handle demotes dst interprocedurally.
func (n *Net) leak(dst int) {
	n.routers[dst].occ++ // want `write to n\.routers\[dst\]\.occ is not provably shard-local`
}

// count is reachable from stepShard, so its write is checked like one
// in a root.
func (n *Net) count() {
	n.total++ // want `write to n\.total is not provably shard-local`
}

// alg's Route is a parallel root by method name (ParallelRootMethods).
type alg struct{ state int }

func (a *alg) Route(n *Net, p *Pkt) int {
	a.state++              // ok: the algorithm instance rides with the shard
	n.routers[p.dst].occ++ // want `write to n\.routers\[p\.dst\]\.occ is not provably shard-local`
	return p.dst
}
