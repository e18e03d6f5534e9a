package routing

import (
	"slices"

	"cbar/internal/router"
)

// Quiet-cycle elision horizons (router.CycleHorizon): every shipped
// policy declares the next cycle its BeginCycle does observable work, so
// the cycle loops can jump quiet spans (see router/elide.go).
//
//   - Policies with no BeginCycle work at all (Base and its statistical
//     variant, OLM, MIN, VAL, the hybrid, and PB, which reads occupancy
//     where it decides and keeps no per-cycle state) inherit both the
//     no-op BeginCycle and its horizon, NoPendingCycle, from
//     router.NopHooks: the clock may jump any distance without
//     consulting them.
//   - ECtN, the one policy with a BeginCycle body, declares its own
//     below.
//
// A new Alg implementation that gives BeginCycle a body must override
// NextAlgCycle with it (or not embed NopHooks, and simply never be
// elided): at every reachable state it returns a cycle no later than
// BeginCycle's next observable effect — and stays allocation-free, as
// the query runs on the stepping hot path.

// NextAlgCycle: ECtN combines dirty groups every ECtNPeriod cycles.
// While any group is dirty the horizon is the next combine tick (which
// may be the current cycle — then no elision happens and Step runs the
// combine); with no group marked the next combine would be a no-op and
// the horizon is NoPendingCycle. Like every shipped horizon it answers
// ok=true.
func (a *ectnAlg) NextAlgCycle(n *router.Network) (int64, bool) {
	if !slices.Contains(a.dirty, true) {
		return router.NoPendingCycle, true
	}
	now := n.Now()
	return now + (a.period-now%a.period)%a.period, true
}
