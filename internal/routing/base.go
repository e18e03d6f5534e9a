package routing

import (
	"fmt"

	"cbar/internal/router"
)

// baseAlg is the paper's Base mechanism (§III-B): OLM's misrouting
// policy with the misrouting trigger replaced by contention counters.
//
// Counter discipline (exactly §III-B):
//   - when a packet reaches the head of an input VC, the counter of its
//     minimal output is incremented — every VC of every port contributes
//     concurrently;
//   - the counter stays raised until the packet's tail leaves the input
//     buffer, even if the packet is forwarded through another port;
//   - misrouting triggers when the minimal output's counter strictly
//     exceeds th; the nonminimal port is chosen uniformly among the
//     policy's candidates whose own counter is under th.
//
// The trigger never reads buffer occupancy, which decouples the routing
// decision from buffer sizes and gives the immediate adaptation of
// Figures 7-8.
type baseAlg struct {
	contentionHooks
	th int32
}

func newBase(th int32) *baseAlg { return &baseAlg{th: th} }

func (*baseAlg) Name() string { return Base.String() }

func (a *baseAlg) Route(r *router.Router, p *router.Packet, port, vc int) router.Request {
	return a.contentionRoute(r, p, a.th)
}

// contentionHooks is the counter discipline above as an embeddable hook
// block, shared by every contention-based mechanism: count at the head,
// uncount when the tail leaves, record a deviation at the grant. It owns
// the counter bank, one counter per output port of every router, router
// r's row at r.ID*radix: beside the fabric, not in it, as §III-B puts
// the counters beside the router datapath.
type contentionHooks struct {
	router.NopHooks
	radix    int
	counters []int32
}

// Attach allocates the counter bank, all zero.
func (h *contentionHooks) Attach(n *router.Network) {
	h.radix = n.Topo.Radix()
	h.counters = make([]int32, n.Topo.Routers*h.radix)
}

// row returns router r's counters, indexed by output port.
func (h *contentionHooks) row(r *router.Router) []int32 {
	return h.counters[r.ID*h.radix : (r.ID+1)*h.radix : (r.ID+1)*h.radix]
}

// OnHead increments the counter of p's minimal output and records it on
// the packet for the matching decrement.
func (h *contentionHooks) OnHead(r *router.Router, p *router.Packet, port, vc int) {
	min := r.MinimalOut(p)
	h.counters[r.ID*h.radix+min]++
	p.CountedPort = int16(min)
}

// OnDequeue reverses OnHead once the packet's tail leaves the queue. It
// panics if the counter would go negative: that is always a bookkeeping
// bug (a decrement without its increment), never a legal state.
func (h *contentionHooks) OnDequeue(r *router.Router, p *router.Packet, port, vc int) {
	if p.CountedPort < 0 {
		return
	}
	if i := r.ID*h.radix + int(p.CountedPort); h.counters[i] > 0 {
		h.counters[i]--
	} else {
		panic(fmt.Sprintf("routing: router %d: contention counter for port %d went negative", r.ID, p.CountedPort))
	}
	p.CountedPort = -1
}

func (*contentionHooks) OnGrant(r *router.Router, p *router.Packet, port, vc, out, outVC int) {
	markDeviation(r, p, out)
}

// contentionRoute is the shared Base decision, reused by ECtN: minimal
// unless the minimal output's counter exceeds th, in which case a
// policy-legal nonminimal port with a counter under th is chosen at
// random; minimal remains the fallback when no candidate qualifies.
func (h *contentionHooks) contentionRoute(r *router.Router, p *router.Packet, th int32) router.Request {
	min := r.MinimalOut(p)
	if r.Kind(min) != router.Injection { // else ejection: we are home
		if out, ok := h.contentionAlternative(r, p, min, th); ok {
			return request(r, p, out)
		}
	}
	return request(r, p, min)
}

// contentionAlternative is the contention trigger of §III-B and the
// policy under it: when the minimal port's counter strictly exceeds th,
// the candidates are the ports whose own counter is under th.
func (h *contentionHooks) contentionAlternative(r *router.Router, p *router.Packet, min int, th int32) (int, bool) {
	c := h.row(r)
	if c[min] <= th {
		return 0, false
	}
	return alternative(r, p, min, func(out int) bool { return c[out] < th })
}

// Contention returns alg's contention counters of router r, indexed by
// output port (alg's own: read only), or nil when alg keeps none.
func Contention(alg router.Algorithm, r *router.Router) []int32 {
	if h, ok := alg.(interface{ row(*router.Router) []int32 }); ok {
		return h.row(r)
	}
	return nil
}
