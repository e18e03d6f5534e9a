#include "textflag.h"
#include "go_asm.h"

// The silent walk's eight-lane step (silent_amd64.go documents the
// contract). Lane j of a ZMM register holds triple j. Every float
// operation is the scalar code's, in its order and unfused, so each
// lane's values are the scalar walk's bit for bit.
//
// Held through the step: DI the *OnOff, SI the *silentCall, R8 silentK,
// R9 logTable, R10 laneA, Z0 the state s in every lane, Z29 2^53,
// Z30 1.0, Z31 2^12 (phase.floor's cap), K7 the low double word of
// each lane (VPBLENDMD's selector).

// PCGLO and PCGHI: the XSH-RR output of state st in the low (high)
// double word of out. With t = st ^ st>>18, rotating t right by 27 (59)
// puts the 32 bits the output takes, t's bits 27-58, in the low (high)
// double word and t's top five bits, the output's rotation, at the
// bottom of the other one, which VPSHUFD copies beside them as
// VPRORVD's count.
#define PCGLO(st, out, tmp) \
	VPSRLQ  $18, st, tmp; \
	VPXORQ  st, tmp, tmp; \
	VPRORQ  $27, tmp, out; \
	VPSHUFD $0xf5, out, tmp; \
	VPRORVD tmp, out, out

#define PCGHI(st, out, tmp) \
	VPSRLQ  $18, st, tmp; \
	VPXORQ  st, tmp, tmp; \
	VPRORQ  $59, tmp, out; \
	VPSHUFD $0xa0, out, tmp; \
	VPRORVD tmp, out, out

// UNIFORM: u = 1 - uniform(hi, lo), the uniform Draw inverts, from hi's
// high double word and lo's low one: with x the 53 bits uniform keeps,
// float64(2^53 - x) * 2^-53, both steps exact as the scalar ones are.
#define UNIFORM(hi, lo, u) \
	VPBLENDMD   lo, hi, K7, u; \
	VPSRLQ      $11, u, u; \
	VPSUBQ      u, Z29, u; \
	VCVTQQ2PD   u, u; \
	VMULPD.BCST silentConsts_ulp53(R8), u, u

// FASTLOG: l = fastLog(u), through the temporaries t1..t5: the two
// table values by gathers (an entry is 16 bytes, so the index is taken
// times two), the exponent by VGETEXPPD (exact for a normal u).
#define FASTLOG(u, l, t1, t2, t3, t4, t5) \
	VPSRLQ      $43, u, t1; \
	VPANDQ.BCST silentConsts_idxMask(R8), t1, t1; \
	KXNORW      K1, K1, K1; \
	VGATHERQPD  (R9)(t1*8), K1, t2; \
	KXNORW      K1, K1, K1; \
	VGATHERQPD  8(R9)(t1*8), K1, t3; \
	VPANDQ.BCST silentConsts_mantMask(R8), u, t4; \
	VPORQ       Z30, t4, t4; \
	VMULPD      t2, t4, t4; \
	VSUBPD      Z30, t4, t4; \
	VMULPD      t4, t4, t2; \
	VMULPD.BCST silentConsts_third(R8), t4, t5; \
	VSUBPD.BCST silentConsts_half(R8), t5, t5; \
	VMULPD.BCST silentConsts_quarter(R8), t2, t1; \
	VSUBPD      t1, t5, t5; \
	VMULPD      t5, t2, t5; \
	VADDPD      t5, t4, t5; \
	VGETEXPPD   u, t1; \
	VMULPD.BCST silentConsts_ln2(R8), t1, t1; \
	VADDPD      t3, t1, t1; \
	VADDPD      t5, t1, l

// FLOOR: phase.floor of l for the phase at offset ph of *OnOff (DI): k
// its floor (VRNDSCALEPD $9: toward -Inf), K its certificate; l and t
// are clobbered. The VCMPPD predicates 0x11 (<), 0x1e (>) and, in the
// screen, 0x1d (>=) are ordered and quiet: false on a NaN, as Go's
// comparisons are.
#define FLOOR(ph, l, k, K, t) \
	VMULPD.BCST (ph+phase_recip)(DI), l, l; \
	VRNDSCALEPD $9, l, k; \
	VSUBPD      k, l, t; \
	VCMPPD      $0x11, Z31, l, K; \
	VCMPPD.BCST $0x1e, (ph+phase_eps)(DI), t, K, K; \
	VSUBPD      t, Z30, t; \
	VCMPPD.BCST $0x1e, (ph+phase_eps)(DI), t, K, K

// STATE: st = the state of output i of every lane, s*A + inc*G.
#define STATE(i, st) \
	VPMULLQ (64*i)(R10), Z0, st; \
	VPADDQ  (64*i)(SI), st, st

// func silent8(w *OnOff, call *silentCall, s uint64) (n int, span int64)
TEXT ·silent8(SB), NOSPLIT, $0-40
	MOVQ         w+0(FP), DI
	MOVQ         call+8(FP), SI
	LEAQ         ·silentK(SB), R8
	LEAQ         ·logTable(SB), R9
	LEAQ         ·laneA(SB), R10
	MOVL         $0x5555, AX
	KMOVW        AX, K7
	VPBROADCASTQ s+16(FP), Z0
	VBROADCASTSD silentConsts_one(R8), Z30
	VBROADCASTSD silentConsts_qCap(R8), Z31
	VPBROADCASTQ silentConsts_two53(R8), Z29

	// The OFF length: outputs 0 and 1.
	STATE(0, Z2)
	STATE(1, Z3)
	PCGHI(Z2, Z4, Z5)
	PCGLO(Z3, Z6, Z5)
	UNIFORM(Z4, Z6, Z7)
	FASTLOG(Z7, Z8, Z9, Z10, Z11, Z12, Z13)
	FLOOR(OnOff_off, Z8, Z14, K2, Z9)

	// The ON length: outputs 2 and 3.
	STATE(2, Z2)
	STATE(3, Z3)
	PCGHI(Z2, Z4, Z5)
	PCGLO(Z3, Z6, Z5)
	UNIFORM(Z4, Z6, Z7)
	FASTLOG(Z7, Z8, Z9, Z10, Z11, Z12, Z13)
	FLOOR(OnOff_on, Z8, Z15, K3, Z9)

	// The gap screen on output 4: hi*hiScale >= negDenom*(1 + kOn).
	STATE(4, Z2)
	PCGLO(Z2, Z4, Z5)
	VPANDQ.BCST  silentConsts_lowWord(R8), Z4, Z4
	VCVTQQ2PD    Z4, Z4
	VMULPD.BCST  silentConsts_hiScale(R8), Z4, Z4
	VADDPD       Z30, Z15, Z5
	VMULPD.BCST  silentCall_negDenom(SI), Z5, Z5
	VCMPPD       $0x1d, Z5, Z4, K4

	// 2 + kOff + kOn per lane, summed exactly in float64.
	VADDPD        Z15, Z14, Z14
	VADDPD.BCST   silentConsts_two(R8), Z14, Z14

	// n: the leading lanes that pass all three.
	KANDB K2, K4, K4
	KANDB K3, K4, K4
	KMOVB K4, AX
	NOTL  AX
	ORL   $0x100, AX
	BSFL  AX, CX
	MOVQ  CX, n+24(FP)
	CMPL  CX, $8
	JEQ   sum

	// span covers the first n lanes only.
	MOVL      $1, AX
	SHLL      CX, AX
	DECL      AX
	KMOVB     AX, K5
	VMOVAPD.Z Z14, K5, Z14

sum:
	VEXTRACTF64X4 $1, Z14, Y15
	VADDPD        Y15, Y14, Y14
	VEXTRACTF128  $1, Y14, X15
	VADDPD        X15, X14, X14
	VPERMILPD     $1, X14, X15
	VADDSD        X15, X14, X14
	CVTTSD2SQ     X14, AX
	MOVQ          AX, span+32(FP)
	VZEROUPPER
	RET

// func cpuid(leaf, sub uint32) (a, b, c, d uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL leaf+0(FP), AX
	MOVL sub+4(FP), CX
	CPUID
	MOVL AX, a+8(FP)
	MOVL BX, b+12(FP)
	MOVL CX, c+16(FP)
	MOVL DX, d+20(FP)
	RET

// func xgetbv() (eax uint32)
TEXT ·xgetbv(SB), NOSPLIT, $0-4
	MOVL   $0, CX
	XGETBV
	MOVL   AX, eax+0(FP)
	RET
