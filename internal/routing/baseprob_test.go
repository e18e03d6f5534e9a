package routing

import (
	"testing"

	"cbar/internal/router"
)

func TestBaseProbRamp(t *testing.T) {
	a := newBaseProb(6) // ramp = th = 6, cap 90%
	cases := []struct {
		counter int32
		want    int32 // permille
	}{
		{0, 0}, {6, 0}, {7, 166}, {9, 500}, {12, 900}, {100, 900},
	}
	for _, c := range cases {
		if got := a.misroutePermille(c.counter); got != c.want {
			t.Errorf("permille(%d) = %d, want %d", c.counter, got, c.want)
		}
	}
}

func TestBaseProbDefaultsAndClamps(t *testing.T) {
	a := newBaseProb(0) // degenerate threshold: the ramp is one counter wide
	// One past the threshold is already a full ramp; the cap holds.
	if got := a.misroutePermille(1); got != probMaxPct*10 {
		t.Fatalf("clamped cap permille = %d, want %d", got, probMaxPct*10)
	}
}

// TestBaseProbKeepsMinimalShare: under sustained ADV+1 pressure, Base
// diverts essentially everything while BaseProb keeps a visible share of
// traffic on the minimal path — the §VI-C behavior.
func TestBaseProbKeepsMinimalShare(t *testing.T) {
	t.Parallel()
	run := func(a Algo) float64 {
		n := build(t, a, testOptions(), 51)
		rnd := &testRand{s: 207}
		driveAdversarial(n, rnd, 800, 25, 1)
		var mis, tot int
		n.OnDeliver = func(p *router.Packet, _ int64) {
			tot++
			if p.GlobalMisroute {
				mis++
			}
		}
		driveAdversarial(n, rnd, 400, 25, 1)
		n.Drain(60000)
		if tot == 0 {
			t.Fatal("no deliveries")
		}
		return float64(mis) / float64(tot)
	}
	base := run(Base)
	prob := run(BaseProb)
	if base < 0.7 {
		t.Fatalf("Base misrouted only %.2f under ADV", base)
	}
	if prob >= base {
		t.Fatalf("BaseProb misroute fraction %.2f not below Base %.2f", prob, base)
	}
	if prob < 0.2 {
		t.Fatalf("BaseProb misroute fraction %.2f suspiciously low", prob)
	}
}

// TestBaseProbMinimalAtLowLoad: with counters under threshold the
// statistical trigger never fires.
func TestBaseProbMinimalAtLowLoad(t *testing.T) {
	t.Parallel()
	n := build(t, BaseProb, DefaultOptions(), 53)
	var mis int
	n.OnDeliver = func(p *router.Packet, _ int64) {
		if p.GlobalMisroute || p.LocalMisroutes > 0 {
			mis++
		}
	}
	rnd := &testRand{s: 209}
	driveUniform(n, rnd, 400, 4)
	n.Drain(30000)
	if n.NumDelivered == 0 {
		t.Fatal("nothing delivered")
	}
	if frac := float64(mis) / float64(n.NumDelivered); frac > 0.01 {
		t.Fatalf("BaseProb misrouted %.2f%% at light uniform load", frac*100)
	}
}
