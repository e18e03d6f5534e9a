package sim

import (
	"cbar/internal/router"
	"cbar/internal/traffic"
	"context"
)

// Quiet-cycle elision for the (injector, network) pair: the network
// knows the next cycle anything scheduled can happen
// (router.Network.ElideHorizon) and the injector knows its next arrival
// (traffic.Injector.NextArrival); the clock may jump to the earlier of
// the two. Both queries are exact — elided spans are bit-identical to
// stepping them — so the driver (point.advance) elides freely, capping
// jumps only at its caller's bookkeeping boundary (measurement bucket,
// warmup end) so per-bucket series are synthesized exactly as the
// stepping path would have produced them.

// elisionOff pins the driver to plain stepping. Only
// the equivalence tests flip it (to prove elided runs bit-identical to
// stepped ones); production code never sets it.
var elisionOff bool

// elideStep tries to jump the pair over a quiet span, at most to the
// absolute cycle `target`; it reports whether the clock advanced. When
// it returns false the caller must run one normal inj.Cycle + net.Step.
// Only the driver calls it (detlint: barrier-only).
func elideStep(net *router.Network, inj *traffic.Injector, target int64) bool {
	if elisionOff {
		return false
	}
	j, ok := net.ElideHorizon(target)
	if !ok {
		return false
	}
	if a := inj.NextArrival(j - 1); a < j {
		j = a
	}
	if j <= net.Now() {
		return false
	}
	net.ElideTo(j)
	return true
}

// Advance runs the pair for `cycles` cycles through the driver — quiet
// spans elided, as every measurement runs. Benchmarks and tests drive
// deep-idle regimes through it.
func Advance(net *router.Network, inj *traffic.Injector, cycles int64) {
	p := point{net: net, inj: inj}
	_ = p.advance(context.Background(), net.Now()+cycles) // Background never cancels
}
