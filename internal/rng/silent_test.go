package rng

import (
	"fmt"
	"math"
	"runtime"
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

// boundaryOffsets are distances from the integer quotient n of phase ph
// at which its certificate is tested: inside fastLogErr/|denom|, between
// that and the full bound, and just past the epsilon.
func boundaryOffsets(ph phase, n float64) []float64 {
	logErr := fastLogErr / -ph.g.denom
	var offsets []float64
	for _, frac := range []float64{0, 0.25, 0.5, 0.75, 0.97} {
		offsets = append(offsets, logErr*frac, logErr+n*quotientSlack*frac)
	}
	return append(offsets, ph.eps*1.5)
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
		ph := newPhase(NewGeom(pEnd))
		logErr := fastLogErr / -ph.g.denom
		for n := 1.0; n < 4096; n = math.Ceil(n * 1.07) {
			for _, off := range boundaryOffsets(ph, n) {
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

// FuzzSilentWalk holds Silent to the per-draw walk — every arrival,
// ON-phase end and generator state, eight calls of a fuzzed budget
// (under 4 096 triples) each, give-ups included — at fuzzed seeds,
// streams, phase means and gap rates; on a host with the kernel, the
// kernel path to the scalar loop the same way; and the reciprocal floor
// to the exact expression on a uniform made from the fuzzed seed.
func FuzzSilentWalk(f *testing.F) {
	f.Add(uint64(1), uint64(0), 50.0, 150.0, 5e-6, uint16(1<<10))
	f.Add(uint64(1), uint64(1055), 50.0, 150.0, 5e-4, uint16(1<<10))
	f.Add(uint64(7), uint64(3), 2.0, 1.5, 0.3, uint16(1<<10))
	f.Add(uint64(2015), uint64(64), 1e4, 3.0, 1e-3, uint16(1<<10))
	f.Add(uint64(99), uint64(5), 1.0000001, 1e6, 0.999, uint16(1<<10))
	f.Add(uint64(1<<63), uint64(1<<40), 5000.0, 5000.0, 1e-9, uint16(1<<10))
	f.Add(uint64(3), uint64(9), 50.0, 150.0, 5e-3, uint16(7))
	f.Add(uint64(3), uint64(9), 50.0, 150.0, 5e-3, uint16(9))
	f.Add(uint64(5), uint64(2), 1.5, 2.0, 0.05, uint16(17))
	f.Add(uint64(11), uint64(1), 9e11, 9e11, 1e-9, uint16(23))
	f.Fuzz(func(t *testing.T, seed, stream uint64, onMean, offMean, rate float64, budget uint16) {
		if !(onMean > 1 && onMean < 1e12) || !(offMean > 1 && offMean < 1e12) || !(rate > 0 && rate < 1) {
			t.Skip("a saturated phase or gap, or not a mean: Silent is never called")
		}
		w, gap := NewOnOff(1/onMean, 1/offMean), NewGeom(rate)
		if !w.Drawn() {
			t.Skip("a phase mean within rounding of 1")
		}
		n := int(budget % 4096)
		a, b, c := New(seed, stream), New(seed, stream), New(seed, stream)
		end := int64(0)
		for call := range 8 {
			t1, end1, ok1 := w.Silent(a, gap, end, n)
			t2, end2, ok2 := drawWalk(&w, b, gap, end, n)
			if t1 != t2 || end1 != end2 || ok1 != ok2 || *a != *b {
				t.Fatalf("call %d from %d: Silent (%d, %d, %v), per-draw walk (%d, %d, %v), states equal: %v",
					call, end, t1, end1, ok1, t2, end2, ok2, *a == *b)
			}
			if silentKernel {
				t3, end3, ok3 := scalarSilent(&w, c, gap, end, n)
				if t1 != t3 || end1 != end3 || ok1 != ok3 || *a != *c {
					t.Fatalf("call %d from %d: kernel (%d, %d, %v), scalar (%d, %d, %v), states %#x and %#x",
						call, end, t1, end1, ok1, t3, end3, ok3, a.state, c.state)
				}
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

// TestSilentWalkPath names the silent walk this host runs: the
// eight-lane AVX-512 kernel, or the scalar loop everywhere else (CI
// prints it, so a runner that tests only the scalar loop shows).
func TestSilentWalkPath(t *testing.T) {
	path := "scalar loop, one triple per step"
	if silentKernel {
		path = "AVX-512 kernel, eight triples per step"
	}
	t.Logf("silent walk on %s: %s", runtime.GOARCH, path)
}

// scalarSilent is Silent with the kernel switched off.
func scalarSilent(w *OnOff, p *PCG, gap Geom, end int64, budget int) (t, onEnd int64, ok bool) {
	defer func(k bool) { silentKernel = k }(silentKernel)
	silentKernel = false
	return w.Silent(p, gap, end, budget)
}

func requireKernel(t testing.TB) {
	if !silentKernel {
		t.Skip("no AVX-512 kernel on this host: Silent is the scalar loop")
	}
}

// sameWalk runs calls Silent calls of budget triples each from p, on the
// kernel path and on the scalar loop, and fails at the first difference
// in what they return or where they leave the generator.
func sameWalk(t *testing.T, name string, w *OnOff, gap Geom, p PCG, budget, calls int) {
	t.Helper()
	a, b, end := p, p, int64(0)
	for call := range calls {
		t1, end1, ok1 := w.Silent(&a, gap, end, budget)
		t2, end2, ok2 := scalarSilent(w, &b, gap, end, budget)
		if t1 != t2 || end1 != end2 || ok1 != ok2 || a != b {
			t.Fatalf("%s, budget %d, call %d from %d: kernel (%d, %d, %v) leaves %#x, scalar (%d, %d, %v) leaves %#x",
				name, budget, call, end, t1, end1, ok1, a.state, t2, end2, ok2, b.state)
		}
		end = end1
	}
}

// scalarLanes is what silent8 must return from state s, computed with
// the scalar walk's own pieces: the leading triples whose two
// certificates and gap screen pass, and the cycles they cover.
func scalarLanes(w *OnOff, gap Geom, s, inc uint64) (n int, span int64) {
	for ; n < 8; n++ {
		kOff, okOff := w.off.floor(fastLog(1 - uniform(output(s), output(s*jumpA1+inc))))
		kOn, okOn := w.on.floor(fastLog(1 - uniform(output(s*jumpA2+inc*jumpG2), output(s*jumpA3+inc*jumpG3))))
		if !okOff || !okOn || !gap.aboveHi(output(s*jumpA4+inc*jumpG4), 1+kOn) {
			break
		}
		span += 2 + int64(kOff) + int64(kOn)
		s = s*jumpA6 + inc*jumpG6
	}
	return n, span
}

// checkLanes fails when silent8 from p's state differs from scalarLanes.
func checkLanes(t *testing.T, name string, w *OnOff, gap Geom, p PCG) (n int) {
	t.Helper()
	call := newSilentCall(p.inc, gap)
	n, span := silent8(w, &call, p.state)
	if wn, wspan := scalarLanes(w, gap, p.state, p.inc); n != wn || span != wspan {
		t.Fatalf("%s, state %#x inc %#x: silent8 takes %d lanes covering %d cycles, the scalar pieces %d covering %d",
			name, p.state, p.inc, n, span, wn, wspan)
	}
	return n
}

// TestSilentKernelMatchesScalar: the kernel path walks what the scalar
// loop walks at every budget around its eight-triple batches — 1 to 17,
// 8k-1, 8k and 8k+1 — at the benchmark's idle point, a busy gap, short
// phases, phase means at the walkable limits (just above 1, where
// quotients sit near 0, and 1e12, where every certificate declines) and
// a gap rate near 1, over several streams, four calls in a row each.
func TestSilentKernelMatchesScalar(t *testing.T) {
	requireKernel(t)
	var budgets []int
	for b := 1; b <= 17; b++ {
		budgets = append(budgets, b)
	}
	for k := 3; k <= 16; k++ {
		budgets = append(budgets, 8*k-1, 8*k, 8*k+1)
	}
	for _, tc := range []struct {
		name                  string
		onMean, offMean, rate float64
	}{
		{"idle point", 50, 150, 5e-6},
		{"busy gap", 50, 150, 5e-3},
		{"short phases", 2, 1.5, 0.3},
		{"ON mean just above 1", 1.0000001, 150, 1e-3},
		{"OFF mean just above 1", 50, 1.0000001, 1e-3},
		{"means of 1e12", 1e12, 1e12, 1e-9},
		{"gap rate near 1", 5000, 5000, 0.999},
	} {
		w, gap := NewOnOff(1/tc.onMean, 1/tc.offMean), NewGeom(tc.rate)
		if !w.Drawn() {
			t.Fatalf("%s: a phase takes no uniform", tc.name)
		}
		for stream := range uint64(4) {
			p := New(stream*0x9E3779B97F4A7C15, stream)
			checkLanes(t, tc.name, &w, gap, *p)
			for _, budget := range budgets {
				sameWalk(t, tc.name, &w, gap, *p, budget, 4)
			}
		}
	}
}

// TestSilentKernelHitAtEveryLane: with a gap that lands in about one ON
// phase in five, states are found whose first arrival is in each of the
// eight lanes of the first batch, and in none; silent8 answers as the
// scalar pieces do from each, and Silent walks the same on both paths.
func TestSilentKernelHitAtEveryLane(t *testing.T) {
	requireKernel(t)
	w, gap := NewOnOff(1.0/50, 1.0/150), NewGeom(5e-3)
	var hits [9]int // by the triple of the first arrival; 8: none in the batch
	for stream := range uint64(3000) {
		p := New(stream, 7)
		checkLanes(t, "busy gap", &w, gap, *p)
		q, hit, end, ok := *p, 0, int64(0), false
		for ; hit < 8; hit++ {
			if _, end, ok = drawWalk(&w, &q, gap, end, 1); ok {
				break
			}
		}
		hits[hit]++
		if hits[hit] <= 4 {
			for _, budget := range []int{8, 9, 16} {
				sameWalk(t, fmt.Sprintf("first arrival in lane %d", hit), &w, gap, *p, budget, 2)
			}
		}
	}
	for lane, n := range hits {
		if n == 0 {
			t.Errorf("no state with its first arrival in lane %d: %v", lane, hits)
		}
	}
}

// TestSilentKernelScreenAtEquality: a gap whose divisor makes lane j's
// screen an exact tie, hi*hiScale == -denom*(1 + kOn), passes it in the
// kernel as aboveHi's >= does (checkLanes holds the kernel to it; some
// tie must lie past lanes that pass).
func TestSilentKernelScreenAtEquality(t *testing.T) {
	requireKernel(t)
	w, ties := NewOnOff(1.0/50, 1.0/150), 0
	for lane := range 8 {
		p := New(uint64(lane), 5)
		s := p.state*tripleA[lane] + p.inc*tripleG[lane]
		kOn, _ := w.on.floor(fastLog(1 - uniform(output(s*jumpA2+p.inc*jumpG2), output(s*jumpA3+p.inc*jumpG3))))
		lhs := float64(output(s*jumpA4+p.inc*jumpG4)) * (belowSlack / (1 << 32))
		d := -lhs / (1 + kOn)
		for _, denom := range []float64{math.Nextafter(d, 0), d, math.Nextafter(d, -1)} {
			if -denom*(1+kOn) != lhs {
				continue
			}
			gap := Geom{denom}
			if checkLanes(t, fmt.Sprintf("lane %d tie", lane), &w, gap, *p) > lane {
				ties++ // the kernel reached the tie and passed it
			}
			sameWalk(t, fmt.Sprintf("lane %d tie", lane), &w, gap, *p, 16, 1)
		}
	}
	if ties == 0 {
		t.Fatal("no lane reached with an exact tie: the test no longer tests the screen's >=")
	}
}

// TestSilentKernelCertificateBoundaries: lanes whose OFF or ON quotient
// lies at TestPhaseFloorBoundaries' distances from an integer get the
// scalar floor's verdict from silent8 — declined inside the error bound,
// and accepted or declined alike just past the epsilon — and Silent walks
// the same on both paths from them. The phase's divisor is chosen to put
// lane j's quotient there.
func TestSilentKernelCertificateBoundaries(t *testing.T) {
	requireKernel(t)
	gap := NewGeom(5e-6)
	declined, accepted := 0, 0
	for lane := range 8 {
		p := New(uint64(lane), 99)
		s := p.state*tripleA[lane] + p.inc*tripleG[lane]
		uOff := 1 - uniform(output(s), output(s*jumpA1+p.inc))
		uOn := 1 - uniform(output(s*jumpA2+p.inc*jumpG2), output(s*jumpA3+p.inc*jumpG3))
		for _, on := range []bool{false, true} {
			l := fastLog(uOff)
			if on {
				l = fastLog(uOn)
			}
			for _, n := range []float64{1, 3, 17, 150, 1000, 4000} {
				for _, off := range boundaryOffsets(newPhase(Geom{l / n}), n) {
					for _, target := range []float64{n - off, n + off} {
						ph := newPhase(Geom{l / target})
						w := NewOnOff(1.0/50, 1.0/150)
						if on {
							w.on = ph
						} else {
							w.off = ph
						}
						name := fmt.Sprintf("lane %d, ON %v, quotient %v", lane, on, target)
						got := checkLanes(t, name, &w, gap, *p)
						if _, ok := ph.floor(l); ok {
							accepted++
						} else if declined++; got > lane {
							t.Fatalf("%s: silent8 took %d lanes past a declined certificate", name, got)
						}
						sameWalk(t, name, &w, gap, *p, 16, 1)
					}
				}
			}
		}
	}
	if declined == 0 || accepted == 0 {
		t.Fatalf("%d quotients declined, %d accepted: the set no longer tests the certificate", declined, accepted)
	}
}

// BenchmarkOnOffSilentWalk is the repo benchmark's idle point seen from
// one node: un+burst:50,150 at 1e-5 load, an ON-phase rate of 5e-6, so
// some 4 000 silent (OFF, ON, gap) triples walked per arrival. Each call
// walks to the next arrival; ns/pair divides the time by the triples
// the same calls walk, counted afterwards one triple at a time on a twin
// stream, untimed. /kernel is the eight-lane step (skipped on a host
// without it), /scalar the one-triple loop.
func BenchmarkOnOffSilentWalk(b *testing.B) {
	w, gap := NewOnOff(1.0/50, 1.0/150), NewGeom(5e-6)
	for _, path := range []struct {
		name   string
		kernel bool
	}{{"kernel", true}, {"scalar", false}} {
		b.Run(path.name, func(b *testing.B) {
			if path.kernel && !silentKernel {
				b.Skip("no AVX-512 kernel on this host")
			}
			defer func(k bool) { silentKernel = k }(silentKernel)
			silentKernel = path.kernel
			p, end := New(1, 1), int64(0)
			for range b.N {
				_, end, _ = w.Silent(p, gap, end, 1<<20)
			}
			b.StopTimer()
			twin, end, pairs := New(1, 1), int64(0), 0
			for range b.N {
				for ok := false; !ok; pairs++ {
					_, end, ok = drawWalk(&w, twin, gap, end, 1)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(pairs), "ns/pair")
		})
	}
}
