// Package rng provides a small, fast, deterministic pseudo-random number
// generator used throughout the simulator.
//
// The simulator needs reproducible runs: the same seed must generate the
// same traffic and the same tie-breaking decisions on every platform and
// Go release. math/rand's global functions are unsuitable (shared state),
// and keeping one generator per router/node via math/rand.New costs more
// memory than needed. This package implements PCG-XSH-RR 64/32 (O'Neill,
// 2014) with a 64-bit state and a per-stream increment, so every router
// and node can own an independent, splittable stream seeded from the run
// seed and its own identity.
package rng

import "math"

// PCG is a PCG-XSH-RR 64/32 generator. The zero value is a valid but
// fixed-stream generator; use New or Seed for distinct streams.
type PCG struct {
	state uint64
	inc   uint64 // always odd
}

const pcgMult = 6364136223846793005

// New returns a generator seeded with seed on stream streamID. Distinct
// streamIDs yield statistically independent sequences for the same seed.
func New(seed, streamID uint64) *PCG {
	var p PCG
	p.Seed(seed, streamID)
	return &p
}

// Seed resets the generator to the given seed and stream.
func (p *PCG) Seed(seed, streamID uint64) {
	p.inc = streamID<<1 | 1
	p.state = 0
	p.next()
	p.state += seed
	p.next()
}

// Split derives a new independent generator from p, advancing p. It is
// used to hand child components their own streams without coordinating
// stream IDs globally.
func (p *PCG) Split() *PCG {
	return New(p.Uint64(), p.Uint64())
}

func (p *PCG) next() uint32 {
	old := p.state
	p.state = old*pcgMult + p.inc
	xorshifted := uint32(((old >> 18) ^ old) >> 27)
	rot := uint32(old >> 59)
	return xorshifted>>rot | xorshifted<<((-rot)&31)
}

// Uint32 returns a uniformly distributed 32-bit value.
func (p *PCG) Uint32() uint32 { return p.next() }

// Uint64 returns a uniformly distributed 64-bit value.
func (p *PCG) Uint64() uint64 {
	hi := uint64(p.next())
	lo := uint64(p.next())
	return hi<<32 | lo
}

// Intn returns a uniformly distributed int in [0, n). It panics if n <= 0.
// It uses Lemire's multiply-shift rejection method to avoid modulo bias.
func (p *PCG) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn with non-positive n")
	}
	bound := uint32(n)
	// Lemire's nearly-divisionless bounded generation.
	x := p.next()
	m := uint64(x) * uint64(bound)
	l := uint32(m)
	if l < bound {
		t := -bound % bound
		for l < t {
			x = p.next()
			m = uint64(x) * uint64(bound)
			l = uint32(m)
		}
	}
	return int(m >> 32)
}

// Int31n is Intn specialized for int32 values.
func (p *PCG) Int31n(n int32) int32 { return int32(p.Intn(int(n))) }

// Float64 returns a uniformly distributed float64 in [0, 1).
func (p *PCG) Float64() float64 {
	return float64(p.Uint64()>>11) / (1 << 53)
}

// Bernoulli reports true with probability prob. Probabilities outside
// [0, 1] saturate (never / always).
func (p *PCG) Bernoulli(prob float64) bool {
	if prob <= 0 {
		return false
	}
	if prob >= 1 {
		return true
	}
	return p.Float64() < prob
}

// Geometric returns the number of failures before the first success of a
// Bernoulli(prob) sequence, via inversion sampling. It lets a caller skip
// directly to the next success in a long trial sequence instead of
// drawing every trial — the distribution of successes is identical to
// per-trial Bernoulli draws. prob >= 1 always returns 0; prob <= 0
// returns MaxInt32 (no success within any realistic range); neither
// consumes a draw. It is the one-shot form of Geom.
func (p *PCG) Geometric(prob float64) int { return NewGeom(prob).Draw(p) }

// Geom is a prepared geometric distribution: Geometric for a fixed
// probability without recomputing its logarithm on every draw. The zero
// value never succeeds (prob 0).
type Geom struct {
	// denom is log1p(-prob), the inversion's divisor: negative for prob
	// in (0, 1); -Inf stands for prob >= 1 and 0 for prob <= 0.
	denom float64
}

// NewGeom prepares the distribution Geometric(prob) samples; prob
// saturates at 0 and 1, whose logarithms are the two sentinels.
func NewGeom(prob float64) Geom { return Geom{math.Log1p(-min(max(prob, 0), 1))} }

// Never reports whether the success probability is zero (or below).
func (g Geom) Never() bool { return g.denom == 0 }

// Draw samples g from p's stream by inversion: one uniform per draw,
// none at the two saturated probabilities.
func (g Geom) Draw(p *PCG) int {
	if g.denom == 0 {
		return math.MaxInt32
	}
	if math.IsInf(g.denom, -1) {
		return 0
	}
	u := 1 - p.Float64() // (0, 1]: avoids log(0)
	k := math.Floor(math.Log(u) / g.denom)
	if k >= math.MaxInt32 {
		return math.MaxInt32
	}
	return int(k)
}

// Shuffle permutes the first n elements using swap, Fisher-Yates style.
func (p *PCG) Shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		j := p.Intn(i + 1)
		swap(i, j)
	}
}

// Pick returns a uniformly chosen element of xs. It panics on empty input.
func Pick[T any](p *PCG, xs []T) T {
	return xs[p.Intn(len(xs))]
}
