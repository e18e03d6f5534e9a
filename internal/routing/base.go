package routing

import (
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
	return contentionRoute(r, p, a.th)
}

// contentionHooks is the counter discipline above as an embeddable hook
// block, shared by every contention-based mechanism: count at the head,
// uncount when the tail leaves, record a deviation at the grant.
type contentionHooks struct{ router.NopHooks }

func (contentionHooks) OnHead(r *router.Router, p *router.Packet, port, vc int) {
	countHead(r, p)
}

func (contentionHooks) OnDequeue(r *router.Router, p *router.Packet, port, vc int) {
	uncount(r, p)
}

func (contentionHooks) OnGrant(r *router.Router, p *router.Packet, port, vc, out, outVC int) {
	markDeviation(r, p, out)
}

// countHead increments the contention counter of p's minimal output and
// records it on the packet for the matching decrement.
func countHead(r *router.Router, p *router.Packet) {
	min := r.MinimalOut(p)
	r.Contention.Inc(min)
	p.CountedPort = int16(min)
}

// uncount reverses countHead once the packet's tail leaves the queue.
func uncount(r *router.Router, p *router.Packet) {
	if p.CountedPort >= 0 {
		r.Contention.Dec(int(p.CountedPort))
		p.CountedPort = -1
	}
}

// contentionRoute is the shared Base decision, reused by ECtN: minimal
// unless the minimal output's counter exceeds th, in which case a
// policy-legal nonminimal port with a counter under th is chosen at
// random; minimal remains the fallback when no candidate qualifies.
func contentionRoute(r *router.Router, p *router.Packet, th int32) router.Request {
	min := r.MinimalOut(p)
	if r.Kind(min) != router.Injection { // else ejection: we are home
		if out, ok := contentionAlternative(r, p, min, th); ok {
			return request(r, p, out)
		}
	}
	return request(r, p, min)
}
