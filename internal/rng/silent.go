package rng

import "math"

// Jump-ahead (F. Brown, "Random number generation with arbitrary
// strides", 1994): j steps of s' = a*s + inc take a state s to
// A_j*s + inc*G_j (mod 2^64), with A_j = a^j and G_j = Σ_{t<j} a^t, so
// A_{j+1} = a*A_j and G_{j+1} = a*G_j + 1. Six steps from one state are
// six independent multiplies instead of a six-deep chain.
const (
	jumpA1, jumpG1 = pcgMult, 1
	jumpA2, jumpG2 = jumpA1 * pcgMult % (1 << 64), (jumpG1*pcgMult + 1) % (1 << 64)
	jumpA3, jumpG3 = jumpA2 * pcgMult % (1 << 64), (jumpG2*pcgMult + 1) % (1 << 64)
	jumpA4, jumpG4 = jumpA3 * pcgMult % (1 << 64), (jumpG3*pcgMult + 1) % (1 << 64)
	jumpA5, jumpG5 = jumpA4 * pcgMult % (1 << 64), (jumpG4*pcgMult + 1) % (1 << 64)
	jumpA6, jumpG6 = jumpA5 * pcgMult % (1 << 64), (jumpG5*pcgMult + 1) % (1 << 64)
)

// aboveHi reports DrawBelow's screen passing — a sample at or above
// limit — for every uniform whose high output word is hi: it passes on
// hi*2^-32, the least such uniform (the constant is belowSlack scaled
// exactly, so the product rounds as DrawBelow's does).
func (g Geom) aboveHi(hi uint32, limit float64) bool {
	return limit <= math.MaxInt32 && float64(hi)*(belowSlack/(1<<32)) >= -g.denom*limit
}

// phase is a prepared phase length, 1 + Draw of g, with the reciprocal
// of g's divisor and the certificate's epsilon the silent walk uses.
type phase struct {
	g          Geom
	recip, eps float64
}

// newPhase prepares a phase that ends each cycle with probability pEnd.
// fastLog(u)*recip is within fastLogErr/|denom| + q*quotientSlack of the
// exact quotient (invert's derivation: the reciprocal and the product
// add an ulp, inside the charge), under eps for q below 2^12.
func newPhase(pEnd float64) phase {
	g := NewGeom(pEnd)
	return phase{g, 1 / g.denom, fastLogErr/-g.denom + (1<<12)*quotientSlack}
}

// floor is the floor of the quotient l*recip for l = fastLog(u), and
// whether it is g.invert(u)'s: below 2^12, with no integer within eps
// (a negative quotient, fastLog's error at u near 1, is within eps of 0).
func (ph *phase) floor(l float64) (k float64, ok bool) {
	q := l * ph.recip
	k = math.Floor(q)
	d := q - k
	return k, q < 1<<12 && d > ph.eps && 1-d > ph.eps
}

// OnOff is a prepared pair of phase-length distributions for a
// two-state on-off process: each phase lasts 1 + a geometric number of
// cycles, and ends each cycle with its own probability.
type OnOff struct{ on, off phase }

// NewOnOff prepares ON phases that end each cycle with probability
// pOnEnd and OFF phases that end with probability pOffEnd.
func NewOnOff(pOnEnd, pOffEnd float64) OnOff {
	return OnOff{newPhase(pOnEnd), newPhase(pOffEnd)}
}

// Len draws the length of an ON (on) or OFF phase from p: 1 + Draw of
// its distribution, so a phase that always ends lasts one cycle and
// takes no uniform.
func (w *OnOff) Len(on bool, p *PCG) int64 {
	if on {
		return 1 + int64(w.on.g.Draw(p))
	}
	return 1 + int64(w.off.g.Draw(p))
}

// Drawn reports whether both phase lengths take a uniform (neither
// phase always ends), which Silent requires.
func (w *OnOff) Drawn() bool {
	return !math.IsInf(w.on.g.denom, -1) && !math.IsInf(w.off.g.denom, -1)
}

// Silent walks, from p's stream, the stretch after an ON phase that
// ended at cycle end with no injection, for ON phases injecting with
// gap's (unsaturated) probability: triples of Len(false, p), Len(true, p)
// and gap.DrawBelow(p, onLen), the per-draw walk's draws. It returns the
// first gap inside its ON phase and ok, or ok false after budget
// triples; onEnd is the end of the ON phase it stopped in, and p is left
// where the per-draw walk leaves it. A triple's six PCG outputs come
// from one state by jump-ahead, the lengths are certified from a
// multiply (phase.floor), and the gap is screened on its high word
// (aboveHi), the low one permuted only if that cannot decide.
func (w *OnOff) Silent(p *PCG, gap Geom, end int64, budget int) (t, onEnd int64, ok bool) {
	s, inc := p.state, p.inc
	c2, c3, c4, c5, c6 := inc*jumpG2, inc*jumpG3, inc*jumpG4, inc*jumpG5, inc*jumpG6
	for ; budget > 0; budget-- {
		uOff := 1 - uniform(output(s), output(s*jumpA1+inc)) // (0, 1], as Draw inverts
		uOn := 1 - uniform(output(s*jumpA2+c2), output(s*jumpA3+c3))
		hi, lo := output(s*jumpA4+c4), s*jumpA5+c5
		s = s*jumpA6 + c6
		kOff, okOff := w.off.floor(fastLog(uOff))
		kOn, okOn := w.on.floor(fastLog(uOn))
		if !okOff {
			kOff = float64(w.off.g.invert(uOff))
		}
		if !okOn {
			kOn = float64(w.on.g.invert(uOn))
		}
		onStart := end + 1 + int64(kOff)
		onLen := 1 + int64(kOn)
		end = onStart + onLen
		if gap.aboveHi(hi, 1+kOn) {
			continue
		}
		if k, below := gap.below(uniform(hi, output(lo)), onLen); below {
			p.state = s
			return onStart + int64(k), end, true
		}
	}
	p.state = s
	return 0, end, false
}

// uniform is Float64's value for the outputs hi, lo of its two steps.
func uniform(hi, lo uint32) float64 {
	return float64((uint64(hi)<<32|uint64(lo))>>11) / (1 << 53)
}
