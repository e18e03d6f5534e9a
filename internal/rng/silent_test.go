package rng

import (
	"math"
	"testing"
)

// TestPCGJumpMatchesSteps: A_j*s + inc*G_j is the state j steps of next
// leave, for every offset the silent walk jumps, over 1 000 streams.
func TestPCGJumpMatchesSteps(t *testing.T) {
	jumps := [...]struct{ a, g uint64 }{
		{jumpA1, jumpG1}, {jumpA2, jumpG2}, {jumpA3, jumpG3},
		{jumpA4, jumpG4}, {jumpA5, jumpG5}, {jumpA6, jumpG6},
	}
	for i := range uint64(1000) {
		p := New(i*0x9E3779B97F4A7C15, i)
		for j, jump := range jumps {
			q := *p
			for range j + 1 {
				q.next()
			}
			if got := jump.a*p.state + p.inc*jump.g; got != q.state {
				t.Fatalf("stream %d, offset %d: jump gives %#x, stepping %#x", i, j+1, got, q.state)
			}
		}
	}
}

// drawWalk is the per-draw walk Silent stands for: from the end of a
// silent ON phase, an OFF length, an ON length and a gap draw against it,
// one draw at a time, until a gap falls inside its ON phase or budget
// triples are spent.
func drawWalk(w *OnOff, p *PCG, gap Geom, end int64, budget int) (t, onEnd int64, ok bool) {
	for ; budget > 0; budget-- {
		onStart := end + w.Len(false, p)
		end = onStart + w.Len(true, p)
		if k, below := gap.DrawBelow(p, end-onStart); below {
			return onStart + int64(k), end, true
		}
	}
	return 0, end, false
}

// nearInteger reports whether the fast quotient q of a phase with
// divisor denom lies within the analysis's error bound of an integer,
// fastLogErr/|denom| + q*quotientSlack, where its floor may not be the
// exact expression's.
func nearInteger(q, denom float64) bool {
	return math.Abs(q-math.Round(q)) <= fastLogErr/-denom+q*quotientSlack
}

// TestPhaseFloorBoundaries: the reciprocal floor's certificate declines
// every quotient within the analysis's bound of an integer, and where it
// answers it answers the exact expression's floor. The uniforms are put
// at chosen distances from integer quotients n: inside fastLogErr/|denom|,
// between that and the full bound (where only the q*2^-46 term declines;
// the set must hold some), and just past the certificate's epsilon (it
// must accept some there).
func TestPhaseFloorBoundaries(t *testing.T) {
	qTermOnly, accepted := 0, 0
	for _, pEnd := range []float64{1.0 / 150, 1.0 / 50, 0.02, 0.3, 0.5, 1e-4} {
		ph := newPhase(pEnd)
		logErr := fastLogErr / -ph.g.denom
		for n := 1.0; n < 4096; n = math.Ceil(n * 1.07) {
			var offsets []float64
			for _, frac := range []float64{0, 0.25, 0.5, 0.75, 0.97} {
				offsets = append(offsets, logErr*frac, logErr+n*quotientSlack*frac)
			}
			offsets = append(offsets, ph.eps*1.5)
			for _, off := range offsets {
				for _, target := range []float64{n - off, n + off} {
					u := math.Exp(target * ph.g.denom)
					if !(u >= 0x1p-53 && u <= 1) {
						continue
					}
					u = math.Round(u*(1<<53)) / (1 << 53) // a uniform the generator makes
					q := fastLog(u) * ph.recip
					k, ok := ph.floor(fastLog(u))
					if ok && nearInteger(q, ph.g.denom) {
						t.Errorf("pEnd %v u %v: quotient %v certified within the error bound of an integer", pEnd, u, q)
					}
					if ok && int(k) != refInvert(u, ph.g.denom) {
						t.Errorf("pEnd %v u %v: floor %v, reference %d", pEnd, u, k, refInvert(u, ph.g.denom))
					}
					if d := math.Abs(q - math.Round(q)); d > logErr && nearInteger(q, ph.g.denom) {
						qTermOnly++
					}
					if ok {
						accepted++
					}
				}
			}
		}
	}
	if qTermOnly == 0 || accepted == 0 {
		t.Fatalf("%d points only the q*2^-46 term keeps from certifying, %d certified: the set no longer tests the epsilon", qTermOnly, accepted)
	}
	t.Logf("%d points only the q*2^-46 term declines, %d certified", qTermOnly, accepted)
}

// TestAboveHiImpliesDrawBelowScreen: the gap screen on a high output
// word passes only where DrawBelow's own screen passes for every low
// word, the least (zero) included, at limits whose bound -denom*limit
// lies where consecutive high words straddle belowSlack's margin.
func TestAboveHiImpliesDrawBelowScreen(t *testing.T) {
	straddled := 0
	for _, prob := range []float64{0.3, 0.02, 1.0 / 150, 5e-6} {
		g := NewGeom(prob)
		for limit := int64(1); limit < 1<<20; limit = limit*3/2 + 1 {
			bound := -g.denom * float64(limit)
			if bound >= 1 {
				break
			}
			h0 := uint32(bound * (1 << 32))
			for hi := h0 - 4; hi != h0+8; hi++ {
				f := float64(uint64(hi)<<21) / (1 << 53) // the low word zero
				drawBelowScreen := f*belowSlack >= bound
				if g.aboveHi(hi, float64(limit)) && !drawBelowScreen {
					t.Errorf("prob %v limit %d hi %#x: the high-word screen passes where DrawBelow's does not", prob, limit, hi)
				}
				if f >= bound && !drawBelowScreen {
					straddled++
				}
			}
		}
	}
	if straddled == 0 {
		t.Fatal("no high word lies inside belowSlack's margin: the set no longer tests the screen")
	}
}

// FuzzSilentWalk holds the kernel to the per-draw walk — every arrival,
// ON-phase end and generator state, eight calls of a 1 024-triple budget
// each, give-ups included — at fuzzed seeds, streams, phase means and
// gap rates; and the reciprocal floor to the exact expression on a
// uniform made from the fuzzed seed.
func FuzzSilentWalk(f *testing.F) {
	f.Add(uint64(1), uint64(0), 50.0, 150.0, 5e-6)
	f.Add(uint64(1), uint64(1055), 50.0, 150.0, 5e-4)
	f.Add(uint64(7), uint64(3), 2.0, 1.5, 0.3)
	f.Add(uint64(2015), uint64(64), 1e4, 3.0, 1e-3)
	f.Add(uint64(99), uint64(5), 1.0000001, 1e6, 0.999)
	f.Add(uint64(1<<63), uint64(1<<40), 5000.0, 5000.0, 1e-9)
	f.Fuzz(func(t *testing.T, seed, stream uint64, onMean, offMean, rate float64) {
		if !(onMean > 1 && onMean < 1e12) || !(offMean > 1 && offMean < 1e12) || !(rate > 0 && rate < 1) {
			t.Skip("a saturated phase or gap, or not a mean: Silent is never called")
		}
		w, gap := NewOnOff(1/onMean, 1/offMean), NewGeom(rate)
		if !w.Drawn() {
			t.Skip("a phase mean within rounding of 1")
		}
		a, b := New(seed, stream), New(seed, stream)
		end := int64(0)
		for call := range 8 {
			t1, end1, ok1 := w.Silent(a, gap, end, 1<<10)
			t2, end2, ok2 := drawWalk(&w, b, gap, end, 1<<10)
			if t1 != t2 || end1 != end2 || ok1 != ok2 || *a != *b {
				t.Fatalf("call %d from %d: Silent (%d, %d, %v), per-draw walk (%d, %d, %v), states equal: %v",
					call, end, t1, end1, ok1, t2, end2, ok2, *a == *b)
			}
			end = end1
		}
		u := float64(seed>>11+1) / (1 << 53)
		for _, ph := range []phase{w.on, w.off} {
			if k, ok := ph.floor(fastLog(u)); ok && int(k) != refInvert(u, ph.g.denom) {
				t.Fatalf("denom %v u %v: reciprocal floor %v, reference %d", ph.g.denom, u, k, refInvert(u, ph.g.denom))
			}
		}
	})
}
