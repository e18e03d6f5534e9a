package routing

import (
	"cbar/internal/router"
)

// olmAlg is Opportunistic Local Misrouting (García et al., ICPP 2013),
// the paper's in-transit congestion-based baseline. Every head-of-queue
// packet re-evaluates its route each cycle:
//
//   - in the source group (at injection or after the first local hop,
//     PAR-style) an inter-group packet may take a nonminimal global hop
//     through a random global port of the current router when that
//     port's occupancy is below OLMRelPct% of the minimal port's;
//   - in the intermediate or destination group a packet may take one
//     nonminimal local hop per group under the same relative-occupancy
//     condition.
//
// Occupancy is the credit estimate (output buffer plus outstanding
// credits), so the trigger carries the buffer-size dependence and
// round-trip uncertainty the paper's §II attributes to congestion-based
// mechanisms — that is the point of the baseline.
type olmAlg struct {
	router.NopHooks
	relPct int64
}

func newOLM(o Options) *olmAlg { return &olmAlg{relPct: int64(o.OLMRelPct)} }

func (*olmAlg) Name() string { return OLM.String() }

func (a *olmAlg) Route(r *router.Router, p *router.Packet, port, vc int) router.Request {
	min := r.MinimalOut(p)
	if r.Kind(min) != router.Injection { // else ejection: we are home
		if out, ok := creditAlternative(r, p, min, a.relPct); ok {
			return request(r, p, out)
		}
	}
	return request(r, p, min)
}

func (a *olmAlg) OnGrant(r *router.Router, p *router.Packet, port, vc, out, outVC int) {
	markDeviation(r, p, out)
}
