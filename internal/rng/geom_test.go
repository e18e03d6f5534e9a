package rng

import (
	"fmt"
	"math"
	"testing"
	"unsafe"
)

// refInvert is the expression that defines a geometric sample, as Draw
// computed it before the certificate existed: the oracle every test here
// compares against.
func refInvert(u, denom float64) int {
	k := math.Floor(math.Log(u) / denom)
	if k >= math.MaxInt32 {
		return math.MaxInt32
	}
	return int(k)
}

// refDraw is the pre-certificate Geom.Draw over refInvert.
func refDraw(p *PCG, prob float64) int {
	denom := math.Log1p(-min(max(prob, 0), 1))
	if denom == 0 {
		return math.MaxInt32
	}
	if math.IsInf(denom, -1) {
		return 0
	}
	return refInvert(1-p.Float64(), denom)
}

// certified reports whether invert answers u from the certificate alone:
// the fast quotient's floor, accepted by the guard. It restates the guard
// through its constants, so a mutant that zeroes one is seen here too.
func (g Geom) certified(u float64) bool {
	l := fastLog(u)
	q := l / g.denom
	d := q - math.Floor(q)
	slack := q*quotientSlack + fastLogErr/-g.denom
	return q < math.MaxInt32 && d > slack && 1-d > slack
}

func TestGeomIsOneFloat(t *testing.T) {
	if size := unsafe.Sizeof(Geom{}); size != 8 {
		t.Fatalf("Geom is %d bytes; the per-node gap slices hold one per node and are budgeted at 8", size)
	}
}

// TestGeomDrawMatchesReference: the certified Draw returns the oracle's
// value and leaves the generator in the oracle's state after every draw,
// at the probabilities the sources use and at the extremes.
func TestGeomDrawMatchesReference(t *testing.T) {
	draws := 10_000_000
	if testing.Short() {
		draws = 200_000
	}
	for _, prob := range []float64{0, 1, 1e-9, 5e-6, 1.0 / 150, 0.02, 0.5, 0.999, 1 - 1e-9} {
		g := NewGeom(prob)
		a, b := New(2015, 3), New(2015, 3)
		for i := 0; i < draws; i++ {
			if got, want := g.Draw(a), refDraw(b, prob); got != want || *a != *b {
				t.Fatalf("prob %v draw %d: Draw %d, reference %d (states equal: %v)", prob, i, got, want, *a == *b)
			}
		}
	}
}

// boundaryUniforms returns uniforms whose exact quotient sits on or
// within a few ulps of an integer, where the floor is decided by the last
// bits of the libm logarithm: u = 2^-k at prob 0.5 (the quotient is k
// exactly), and at three other probabilities the floats around
// (1-prob)^n.
func boundaryUniforms() (probs, us []float64) {
	for k := 0; k <= 53; k++ {
		probs, us = append(probs, 0.5), append(us, math.Ldexp(1, -k))
	}
	for _, prob := range []float64{1.0 / 150, 0.02, 0.3} {
		for n := 1; n < 4000; n += 7 {
			u := math.Exp(float64(n) * math.Log1p(-prob))
			if u < 0x1p-53 {
				break
			}
			lo, hi := u, u
			for range 2 {
				lo, hi = math.Nextafter(lo, 0), math.Nextafter(hi, 1)
				probs, us = append(probs, prob, prob), append(us, lo, hi)
			}
			probs, us = append(probs, prob), append(us, u)
		}
	}
	return probs, us
}

// TestGeomInvertBoundaries: at every boundary uniform the certificate
// must decline (the guard is what makes the fast quotient's floor safe to
// take) and invert must return the oracle's value. The count of points
// where the unguarded floor would have been wrong shows the guard is
// load-bearing on this very set.
func TestGeomInvertBoundaries(t *testing.T) {
	probs, us := boundaryUniforms()
	unguardedWrong := 0
	for i, u := range us {
		g := NewGeom(probs[i])
		want := refInvert(u, g.denom)
		if g.certified(u) {
			t.Errorf("prob %v u %v (%#x): certified within rounding of an integer quotient", probs[i], u, math.Float64bits(u))
		}
		if got := g.invert(u); got != want {
			t.Errorf("prob %v u %v: invert %d, reference %d", probs[i], u, got, want)
		}
		if int(math.Floor(fastLog(u)/g.denom)) != want {
			unguardedWrong++
		}
	}
	if unguardedWrong == 0 {
		t.Errorf("the unguarded fast floor agrees with the reference on all %d boundary points: the set no longer tests the guard", len(us))
	}
	t.Logf("%d boundary points, unguarded fast floor wrong on %d", len(us), unguardedWrong)
}

// TestFastLogErrorBound sweeps mantissas across every table interval (its
// edges, where the series remainder peaks, included) at every exponent a
// uniform can have, and holds fastLog to a tenth of the error the guard
// budgets for it.
func TestFastLogErrorBound(t *testing.T) {
	worst, at := 0.0, 0.0
	check := func(u float64) {
		if err := math.Abs(fastLog(u) - math.Log(u)); !(err <= worst) {
			worst, at = err, u
		}
	}
	const perInterval = 64
	for e := 0; e >= -53; e-- {
		for i := 0; i < 256*perInterval; i++ {
			m := 1 + float64(i)/(256*perInterval)
			check(math.Ldexp(m, e))
			check(math.Ldexp(math.Nextafter(m, 0), e))
		}
	}
	p := New(7, 7)
	for i := 0; i < 2_000_000; i++ {
		check(1 - p.Float64())
	}
	if !(worst <= fastLogErr/10) {
		t.Fatalf("|fastLog - math.Log| = %.3g at u = %v, above a tenth of fastLogErr = %g", worst, at, float64(fastLogErr))
	}
	t.Logf("max |fastLog - math.Log| = %.3g at u = %v", worst, at)
}

// TestGeomDrawBelowMatchesDraw: DrawBelow gives Draw's verdict against
// the limit, Draw's value whenever that is below it, and leaves the
// generator where Draw leaves it — including at the saturated
// probabilities (no draw) and at limits beyond the MaxInt32 cap.
func TestGeomDrawBelowMatchesDraw(t *testing.T) {
	limits := []int64{math.MaxInt32, math.MaxInt32 + 1, -3}
	for l := int64(0); l <= 400; l++ {
		limits = append(limits, l)
	}
	for _, prob := range []float64{0, 1, 1e-9, 5e-6, 1.0 / 150, 0.02, 0.5, 0.999} {
		g := NewGeom(prob)
		a, b := New(99, 5), New(99, 5)
		for rep := 0; rep < 200; rep++ {
			for _, limit := range limits {
				k, below := g.DrawBelow(a, limit)
				want := g.Draw(b)
				if below != (int64(want) < limit) || (below && k != want) || *a != *b {
					t.Fatalf("prob %v limit %d: DrawBelow (%d, %v), Draw %d (states equal: %v)",
						prob, limit, k, below, want, *a == *b)
				}
			}
		}
	}
}

// FuzzGeomInvert: any uniform a generator can produce, at any
// probability strictly inside (0, 1), inverts to the oracle's value.
func FuzzGeomInvert(f *testing.F) {
	probs, us := boundaryUniforms()
	for i := 0; i < len(us); i += 41 {
		f.Add(math.Float64bits(us[i]), math.Float64bits(probs[i]))
	}
	f.Add(math.Float64bits(1), math.Float64bits(0.5))
	f.Add(math.Float64bits(0x1p-53), math.Float64bits(1e-9))
	f.Add(math.Float64bits(0x1p-53), math.Float64bits(1-1e-9))
	f.Fuzz(func(t *testing.T, uBits, probBits uint64) {
		// The generator's uniforms are the multiples of 2^-53 in (0, 1].
		u := float64(uBits>>11+1) / (1 << 53)
		g := NewGeom(math.Float64frombits(probBits))
		if !(g.denom < 0) || math.IsInf(g.denom, -1) {
			t.Skip("saturated or not a probability: Draw never inverts")
		}
		if got, want := g.invert(u), refInvert(u, g.denom); got != want {
			t.Fatalf("denom %v u %v: invert %d, reference %d", g.denom, u, got, want)
		}
	})
}

var sinkInt int

func BenchmarkGeomDraw(b *testing.B) {
	for _, prob := range []float64{5e-6, 1.0 / 150, 0.02} {
		b.Run(fmt.Sprintf("p=%g", prob), func(b *testing.B) {
			g, p := NewGeom(prob), New(1, 1)
			for i := 0; i < b.N; i++ {
				sinkInt += g.Draw(p)
			}
		})
	}
}

// BenchmarkGeomDrawBelow is the on-off source's gap draw at the repo
// benchmark's idle point: an arrival every ~200 000 cycles against the
// ~50 left of the ON phase.
func BenchmarkGeomDrawBelow(b *testing.B) {
	g, p := NewGeom(5e-6), New(1, 1)
	for i := 0; i < b.N; i++ {
		k, below := g.DrawBelow(p, 50)
		if below {
			sinkInt += k
		}
	}
}
