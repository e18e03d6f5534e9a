package rng

import "math"

// silentKernel reports whether Silent walks eight triples per step with
// silent8: the CPU has AVX-512 F, DQ and VL and the OS saves the opmask
// and ZMM registers. Tests clear it to force the scalar walk.
var silentKernel = hasAVX512()

// silent8 evaluates the eight triples that follow state s of the
// stream call was built for — lane j from the state 6j steps on — with
// the scalar walk's IEEE operations in its order: both lengths' fastLog,
// phase.floor's quotient, floor and certificate, and the gap's aboveHi
// screen at limit 1 + the ON length. n is the number of leading lanes
// whose two certificates and screen all pass (8: every lane), and span
// the cycles those n triples cover, the sum of their 2 + kOff + kOn. It
// allocates nothing and writes no memory but its results.
//
//go:noescape
func silent8(w *OnOff, call *silentCall, s uint64) (n int, span int64)

// silentConsts is silent_amd64.s's constant block, each value written
// as the scalar walk writes it; the kernel reads the fields at the
// offsets go_asm.h gives.
type silentConsts struct {
	idxMask, mantMask uint64 // fastLog's table index (times two) and mantissa
	lowWord, two53    uint64 // an output's double word; 2^53, the uniform's unit
	one, two, ulp53   float64
	third, half       float64 // fastLog's series
	quarter, ln2      float64
	qCap, hiScale     float64 // phase.floor's quotient cap; aboveHi's factor
}

var silentK = silentConsts{
	idxMask:  0xff << 1,
	mantMask: 1<<52 - 1,
	lowWord:  math.MaxUint32,
	two53:    1 << 53,
	one:      1,
	two:      2,
	ulp53:    1.0 / (1 << 53),
	third:    1.0 / 3,
	half:     0.5,
	quarter:  0.25,
	ln2:      math.Ln2,
	qCap:     1 << 12,
	hiScale:  belowSlack / (1 << 32),
}

// cpuid and xgetbv are the instructions (silent_amd64.s).
func cpuid(leaf, sub uint32) (a, b, c, d uint32)
func xgetbv() (eax uint32)

// hasAVX512 reports AVX-512 F (EBX bit 16 of CPUID leaf 7), DQ (17) and
// VL (31), and an OS that enabled XSAVE (leaf 1 ECX bit 27) for the
// SSE, AVX, opmask and both ZMM state components (XCR0 bits 1, 2, 5-7).
func hasAVX512() bool {
	if maxLeaf, _, _, _ := cpuid(0, 0); maxLeaf < 7 {
		return false
	}
	if _, _, c, _ := cpuid(1, 0); c&(1<<27) == 0 {
		return false
	}
	const xcr0 = 1<<1 | 1<<2 | 1<<5 | 1<<6 | 1<<7
	if xgetbv()&xcr0 != xcr0 {
		return false
	}
	const avx512 = 1<<16 | 1<<17 | 1<<31
	_, b, _, _ := cpuid(7, 0)
	return b&avx512 == avx512
}
