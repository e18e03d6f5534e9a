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
//
// Geometric samples (Geom) are defined by one expression,
// Floor(Log(u)/log1p(-prob)), and drawn by certifying what it would
// return: a table-driven logarithm with a proven error bound answers
// whenever the bound leaves the floor in no doubt, and the expression
// itself answers otherwise. The fast logarithm is not required to be
// reproducible across platforms, compilers or FMA fusing — only the
// certified outcome is, and that is the exact expression's everywhere.
//
// OnOff.Silent walks an on-off source's silent (OFF, ON, gap) triples
// with a per-draw walk's draws, all six outputs of a triple from one
// state by LCG jump-ahead (A_j = a^j, G_j = Σ_{t<j} a^t): the stream is
// the per-draw walk's by construction. On amd64 with AVX-512 an
// assembly kernel (silent_amd64.s) evaluates eight triples per step
// with the scalar loop's floating-point operations, lane for lane.
package rng

import (
	"math"
	"math/bits"
)

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

func (p *PCG) next() uint32 {
	old := p.state
	p.state = old*pcgMult + p.inc
	return output(old)
}

// output is the XSH-RR permutation: the 32-bit output of the step that
// leaves state old.
func output(old uint64) uint32 {
	xorshifted := uint32(((old >> 18) ^ old) >> 27)
	return bits.RotateLeft32(xorshifted, -int(old>>59)) // one rotate instruction
}

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
	return g.invert(1 - p.Float64()) // (0, 1]: avoids log(0)
}

// DrawBelow is Draw for a caller that only compares the sample with a
// bound: it consumes exactly the uniform Draw would, and reports Draw's
// sample when that is below limit and below = false (k meaningless) when
// it is not. limit may exceed MaxInt32: the sample is capped there as
// Draw's is, and so always below it.
//
// For u = 1-f, -log(u) >= f; so f >= -denom*limit puts the exact
// quotient log(u)/denom at or above limit, and no logarithm is needed to
// say so. belowSlack's 1e-9 pays for the roundings between that and the
// expression invert defines the sample by (half an ulp for each product
// here, an ulp for that logarithm and half for its division: under 2^-50
// together).
func (g Geom) DrawBelow(p *PCG, limit int64) (k int, below bool) {
	if g.denom == 0 || math.IsInf(g.denom, -1) {
		k = g.Draw(p) // saturated: a constant, and no uniform
		return k, int64(k) < limit
	}
	return g.below(p.Float64(), limit)
}

// below is DrawBelow's verdict on the uniform f it drew.
func (g Geom) below(f float64, limit int64) (int, bool) {
	if limit <= math.MaxInt32 && f*belowSlack >= -g.denom*float64(limit) {
		return 0, false
	}
	k := g.invert(1 - f)
	return k, int64(k) < limit
}

// The certificates' error budgets (derivations at fastLog, invert and
// DrawBelow).
const (
	fastLogErr    = 4e-13           // absolute, on fastLog
	quotientSlack = 1.0 / (1 << 46) // relative, on the quotient
	belowSlack    = 1 - 1e-9
)

// invert returns the sample the uniform u in (0, 1] inverts to, for
// denom negative and finite: min(Floor(Log(u)/denom), MaxInt32). Its
// last statement defines that value; everything before only certifies
// what that statement would return, so the stream is the exact
// expression's draw for draw. The fast quotient q is within
//
//	fastLogErr/|denom| + q*quotientSlack
//
// of the exact expression's: the first term is fastLog's error through
// the division; the second covers the exact side's roundings (math.Log
// is good to under one ulp, its division adds half) and this division's
// half ulp, under 2^-51 relative together and charged at 2^-46. When no
// integer lies that close to q both quotients have q's floor. A q nearer
// an integer, at or past the cap, or negative falls through.
func (g Geom) invert(u float64) int {
	l := fastLog(u)
	if q := l / g.denom; q < math.MaxInt32 {
		k := int(q) // truncates: the floor of q >= 0; q < 0 leaves d < 0
		d := q - float64(k)
		// d and 1-d against the bound, both sides times |denom| to spare
		// a second division.
		if slack := fastLogErr - l*quotientSlack; -d*g.denom > slack && (d-1)*g.denom > slack {
			return k
		}
	}
	k := math.Floor(math.Log(u) / g.denom)
	if k >= math.MaxInt32 {
		return math.MaxInt32
	}
	return int(k)
}

// logTable holds, for each of the 256 intervals of [1, 2) that share
// their leading eight mantissa bits, the reciprocal of the midpoint c and
// the logarithm that belongs to the rounded reciprocal, so that
// log m = logc + log1p(m*invc - 1) holds for the stored pair exactly.
var logTable [256]struct{ invc, logc float64 }

func init() {
	for i := range logTable {
		invc := 1 / (1 + (float64(i)+0.5)/256)
		logTable[i].invc, logTable[i].logc = invc, -math.Log(invc)
	}
}

// fastLog approximates the natural logarithm of a positive normal u (a
// uniform is >= 2^-53): u = 2^e*m, m = c*(1+r) with c the table midpoint
// and |r| <= 2^-9, and log1p(r) by its series through r^4, summed so
// that the exponent's term is ready before the series is. The absolute
// error is under 1.8e-14: 5.7e-15 for the r^5/5 left out, 3.6e-15 for
// each of the three roundings at magnitude 53*ln 2 = 37 (e*Ln2, adding
// logc, the final sum), 1.2e-15 for Ln2 itself 53 times, the table and
// the series' own roundings an ulp at 1 between them. math.Log may sit an
// ulp (7.1e-15) from the truth out there, so TestFastLogErrorBound, which
// has only math.Log to compare with, can hold the difference to 2.5e-14
// and holds it to fastLogErr/10; the margin costs one fallback per
// |denom|/(2*fastLogErr) draws.
//
// Nothing here needs to be reproducible across platforms or FMA fusing:
// the bound has room for either, and a value the guard accepts is by
// that bound the exact expression's.
func fastLog(u float64) float64 {
	ub := math.Float64bits(u)
	t := &logTable[ub>>44&0xff]
	r := math.Float64frombits(ub&(1<<52-1)|1023<<52)*t.invc - 1 // m*invc - 1
	r2 := r * r
	// e*Ln2 + logc + log1p(r), e inline so that fastLog inlines.
	return (float64(int(ub>>52)-1023)*math.Ln2 + t.logc) + (r + r2*(r*(1.0/3)-0.5-r2*0.25))
}
