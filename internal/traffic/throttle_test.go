package traffic

import (
	"testing"

	"cbar/internal/router"
	"cbar/internal/topology"
)

// TestThrottleAIMDConstants pins the source side of the congestion loop
// to the values it has always run with: a notification halves the rate,
// floored at 10 %, at most once per hold window of one notification
// delay (LatencyLocal+LatencyGlobal, 110 cycles under Table I), and the
// rate recovers 5 points every two notification delays once the hold
// has passed.
func TestThrottleAIMDConstants(t *testing.T) {
	if decreasePct != 50 || recoverPct != 5 || minRatePct != 10 {
		t.Fatalf("AIMD constants decrease %d%%, recovery %d points, floor %d%%; want 50, 5, 10",
			decreasePct, recoverPct, minRatePct)
	}
	cfg := router.DefaultConfig(topology.Params{P: 4, A: 4, H: 2})
	th := newThrottle(1, cfg)
	if th.hold != 110 || th.recoverEvery != 220 {
		t.Fatalf("hold %d, recovery period %d; want 110 and 220", th.hold, th.recoverEvery)
	}
	cfg.LatencyLocal, cfg.LatencyGlobal = 3, 7
	if th := newThrottle(1, cfg); th.hold != 10 || th.recoverEvery != 20 {
		t.Fatalf("at latencies 3+7: hold %d, recovery period %d; want 10 and 20", th.hold, th.recoverEvery)
	}

	// Decrease: halved per hold window, a notification inside the window
	// ignored, floored at 10 %.
	for _, step := range []struct {
		at   int64
		want int32
	}{{1000, 50}, {1109, 50}, {1110, 25}, {1220, 12}, {1330, 10}} {
		th.onNotify(0, 1, step.at)
		if got := th.ratePct(0); got != step.want {
			t.Fatalf("notified at %d: rate %d%%, want %d%%", step.at, got, step.want)
		}
	}
	// Recovery: anchored at the last cut (1330), nothing inside its hold
	// (until 1440), then 5 points per full 220-cycle period.
	for _, step := range []struct {
		at   int64
		want int32
	}{{1439, 10}, {1549, 10}, {1550, 15}, {1990, 25}} {
		th.admit(0, step.at)
		if got := th.ratePct(0); got != step.want {
			t.Fatalf("admit at %d: rate %d%%, want %d%%", step.at, got, step.want)
		}
	}
}
