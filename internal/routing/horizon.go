package routing

import "cbar/internal/router"

// Quiet-cycle elision horizons (router.CycleHorizon): every shipped
// policy declares the next cycle its BeginCycle does observable work, so
// the cycle loops can jump quiet spans (see router/elide.go). The
// contract per implementation:
//
//   - Policies with no BeginCycle work at all (Base and its statistical
//     variant, OLM, MIN, VAL, the hybrid, and PB, which reads occupancy
//     where it decides and keeps no per-cycle state) return
//     NoPendingCycle: the clock may jump any distance without consulting
//     them.
//   - ECtN combines dirty groups every ECtNPeriod cycles: while any
//     group is dirty the horizon is the next combine tick (which may be
//     the current cycle — then no elision happens and Step runs the
//     combine); with no group marked the next combine would be a
//     no-op and the horizon is NoPendingCycle. The reference
//     combine-every-group mode returns ok=false.
//
// A new Alg implementation that omits NextAlgCycle is simply never
// elided (the safe default); one that implements it must return, at
// every reachable state, a cycle no later than its BeginCycle's next
// observable effect — and must stay allocation-free, as the query runs
// on the stepping hot path.

func (*baseAlg) NextAlgCycle(*router.Network) (int64, bool) {
	return router.NoPendingCycle, true
}

func (*baseProbAlg) NextAlgCycle(*router.Network) (int64, bool) {
	return router.NoPendingCycle, true
}

func (*olmAlg) NextAlgCycle(*router.Network) (int64, bool) {
	return router.NoPendingCycle, true
}

func (*minAlg) NextAlgCycle(*router.Network) (int64, bool) {
	return router.NoPendingCycle, true
}

func (*valiantAlg) NextAlgCycle(*router.Network) (int64, bool) {
	return router.NoPendingCycle, true
}

func (*hybridAlg) NextAlgCycle(*router.Network) (int64, bool) {
	return router.NoPendingCycle, true
}

func (*pbAlg) NextAlgCycle(*router.Network) (int64, bool) {
	return router.NoPendingCycle, true
}

func (a *ectnAlg) NextAlgCycle(n *router.Network) (int64, bool) {
	if a.fullCombine {
		return 0, false
	}
	if !a.dirty.Any() {
		return router.NoPendingCycle, true
	}
	now := n.Now()
	return now + (a.period-now%a.period)%a.period, true
}
