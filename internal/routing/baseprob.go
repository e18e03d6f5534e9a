package routing

import (
	"cbar/internal/router"
)

// baseProbAlg implements the statistical misrouting trigger the paper
// sketches but does not evaluate (§VI-C): instead of Base's hard
// decision — misroute whenever the minimal output's counter exceeds th —
// the probability of routing nonminimally grows with the counter value
// above the threshold, so the minimal path keeps carrying a share of the
// traffic even under heavy adversarial load. §VI-C motivates this with
// the observation that a fixed threshold can leave the minimal path
// completely empty while everything detours around it (in real systems
// some traffic classes must stay minimal anyway, e.g. Cascade's
// in-order packets).
//
// The probability ramp is linear: p = (counter - th) / th, clamped to
// probMaxPct/100 — the misrouting probability reaches its cap when the
// counter doubles the threshold.
type baseProbAlg struct {
	contentionHooks
	th int32
}

// probMaxPct caps the nonminimal probability (percent), so the minimal
// path always keeps a share.
const probMaxPct = 90

// newBaseProb builds the §VI-C statistical variant.
func newBaseProb(th int32) *baseProbAlg { return &baseProbAlg{th: th} }

func (*baseProbAlg) Name() string { return BaseProb.String() }

// misroutePermille returns the per-decision nonminimal probability in
// 1/1000 units for a given counter value: zero up to th.
func (a *baseProbAlg) misroutePermille(counter int32) int32 {
	if counter <= a.th {
		return 0
	}
	return min((counter-a.th)*1000/max(a.th, 1), probMaxPct*10)
}

func (a *baseProbAlg) Route(r *router.Router, p *router.Packet, port, vc int) router.Request {
	min := r.MinimalOut(p)
	if r.Kind(min) == router.Injection {
		return request(r, p, min)
	}
	pm := a.misroutePermille(a.row(r)[min])
	if pm > 0 && int32(r.RNG.Intn(1000)) < pm {
		if out, ok := a.contentionAlternative(r, p, min, a.th); ok {
			return request(r, p, out)
		}
	}
	return request(r, p, min)
}
