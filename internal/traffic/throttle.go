package traffic

import "cbar/internal/router"

// The AIMD constants of the congestion loop's source side, in percent of
// line rate.
const (
	decreasePct = 50 // a notification cuts the rate to rate*decreasePct/100
	recoverPct  = 5  // additive increase per recovery period, in points
	minRatePct  = 10 // floor of the throttled rate
)

// throttle is the source side of the congestion-management loop (see
// internal/router/congestion.go): a per-node AIMD rate limiter driven by
// the fabric's congestion notifications. Each node carries a rate in
// percent of line rate, starting at 100:
//
//   - Multiplicative decrease: a notification cuts the node's rate to
//     rate*decreasePct/100 (floored at minRatePct), at most once per
//     hold window of one notification delay (router.Config.NotifyDelay)
//     — a burst of notifications from one congestion epoch is one cut,
//     as in a per-RTT AIMD loop.
//   - Additive increase: once the hold window has passed, the rate
//     recovers by recoverPct percentage points every two notification
//     delays, one notification round trip. Recovery is applied lazily at
//     the next injection attempt, so an idle node costs nothing.
//   - Pacing: below 100% the node's injections are spaced at least
//     ceil(PacketSize*100/pct) cycles apart, i.e. the node offers at
//     most pct% of its line rate. At 100% no gap is imposed, so an
//     unnotified source behaves exactly like an unthrottled one.
//
// The throttle runs entirely at sequential points — OnNotify fires at the
// handle barrier, injection between cycles — and every per-node update
// commutes across nodes, so throttle decisions (and the throttled/shed
// counters) are bit-identical at every worker count.
type throttle struct {
	packetSize   int64
	hold         int64 // minimum spacing of multiplicative decreases, cycles
	recoverEvery int64 // additive-increase period, cycles

	pct       []int32 // current rate, percent of line rate
	allowedAt []int64 // earliest next injection cycle (pacing)
	holdUntil []int64 // end of the current multiplicative-decrease hold
	lastRise  []int64 // anchor of the additive-increase schedule

	throttled uint64 // injection attempts deferred or suppressed
}

func newThrottle(nodes int, cfg router.Config) *throttle {
	t := &throttle{
		packetSize:   int64(cfg.PacketSize),
		hold:         cfg.NotifyDelay(),
		recoverEvery: 2 * cfg.NotifyDelay(),
		pct:          make([]int32, nodes),
		allowedAt:    make([]int64, nodes),
		holdUntil:    make([]int64, nodes),
		lastRise:     make([]int64, nodes),
	}
	for n := range t.pct {
		t.pct[n] = 100
	}
	return t
}

// onNotify applies one congestion notification to node's rate: a
// multiplicative decrease, at most once per hold window. The severity
// (mark count) is deliberately not compounded — notifications within one
// hold window already collapse into a single cut, and same-node
// notifications arrive in a deterministic order, so the outcome is
// identical at every worker count.
func (t *throttle) onNotify(node, sev int, now int64) {
	if now < t.holdUntil[node] {
		return
	}
	t.pct[node] = max(t.pct[node]*decreasePct/100, minRatePct)
	t.holdUntil[node] = now + t.hold
	t.lastRise[node] = now
}

// admit reports whether node may inject at cycle now, applying lazy
// additive recovery and, on success, the pacing gap for the next
// attempt. A refused attempt is counted in throttled; the caller defers
// (calendar path) or suppresses (Bernoulli path) the injection.
func (t *throttle) admit(node int, now int64) bool {
	if t.pct[node] < 100 && now >= t.holdUntil[node] {
		if steps := (now - t.lastRise[node]) / t.recoverEvery; steps > 0 {
			p := t.pct[node] + int32(steps)*recoverPct
			if p > 100 {
				p = 100
			}
			t.pct[node] = p
			t.lastRise[node] += steps * t.recoverEvery
		}
	}
	if now < t.allowedAt[node] {
		t.throttled++
		return false
	}
	if p := int64(t.pct[node]); p < 100 {
		gap := (t.packetSize*100 + p - 1) / p
		if gap < 1 {
			gap = 1
		}
		t.allowedAt[node] = now + gap
	}
	return true
}

// nextAllowed returns the earliest cycle node may inject at (for
// rescheduling a deferred calendar entry). Strictly in the future when
// admit just refused.
func (t *throttle) nextAllowed(node int) int64 { return t.allowedAt[node] }

// RatePct returns node's current throttle rate in percent of line rate
// (100 = unthrottled); tests use it to observe AIMD dynamics.
func (t *throttle) ratePct(node int) int32 { return t.pct[node] }
