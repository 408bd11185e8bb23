#include "textflag.h"

// The packed forms of the Go kernels in kernels.go, four float64 lanes
// per YMM register. Every lane is one of the Go kernel's sums, with the
// same start value, operand order and addition order, so each result is
// the Go kernel's bit for bit. A multiply-add is VMULPD then VADDPD,
// each rounded; a fused multiply-add would round once and change bits.
// Each kernel takes runs whose length is a multiple of 4.

// func mulAddAVX(dst, base, src []float64, off []int, g []float64)
//
// dst[k] = base[k] (or +0 when base is empty) + Σ_j g[j]·src[off[j]+k],
// the terms added in ascending j. Sixteen sums advance together in four
// accumulators while at least sixteen remain, enough independent adds to
// cover VADDPD's latency, then four in one.
TEXT ·mulAddAVX(SB), NOSPLIT, $0-120
	MOVQ dst_base+0(FP), DI
	MOVQ dst_len+8(FP), R10
	MOVQ base_base+24(FP), R8
	MOVQ base_len+32(FP), R13
	MOVQ src_base+48(FP), SI
	MOVQ off_base+72(FP), BX
	MOVQ off_len+80(FP), CX
	MOVQ g_base+96(FP), DX
	XORQ R9, R9 // byte offset of the current block in dst, base and each term's src run

block16:
	CMPQ R10, $16
	JLT  block4
	TESTQ R13, R13
	JZ   zero16
	VMOVUPD (R8)(R9*1), Y0
	VMOVUPD 32(R8)(R9*1), Y1
	VMOVUPD 64(R8)(R9*1), Y2
	VMOVUPD 96(R8)(R9*1), Y3
	JMP  terms16

zero16:
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3

terms16:
	XORQ R11, R11

loop16:
	CMPQ R11, CX
	JGE  store16
	MOVQ (BX)(R11*8), R12
	LEAQ (SI)(R12*8), R12
	VBROADCASTSD (DX)(R11*8), Y15
	VMULPD (R12)(R9*1), Y15, Y4
	VADDPD Y4, Y0, Y0
	VMULPD 32(R12)(R9*1), Y15, Y5
	VADDPD Y5, Y1, Y1
	VMULPD 64(R12)(R9*1), Y15, Y6
	VADDPD Y6, Y2, Y2
	VMULPD 96(R12)(R9*1), Y15, Y7
	VADDPD Y7, Y3, Y3
	INCQ R11
	JMP  loop16

store16:
	VMOVUPD Y0, (DI)(R9*1)
	VMOVUPD Y1, 32(DI)(R9*1)
	VMOVUPD Y2, 64(DI)(R9*1)
	VMOVUPD Y3, 96(DI)(R9*1)
	ADDQ $128, R9
	SUBQ $16, R10
	JMP  block16

block4:
	CMPQ R10, $4
	JLT  done
	TESTQ R13, R13
	JZ   zero4
	VMOVUPD (R8)(R9*1), Y0
	JMP  terms4

zero4:
	VXORPD Y0, Y0, Y0

terms4:
	XORQ R11, R11

loop4:
	CMPQ R11, CX
	JGE  store4
	MOVQ (BX)(R11*8), R12
	LEAQ (SI)(R12*8), R12
	VBROADCASTSD (DX)(R11*8), Y15
	VMULPD (R12)(R9*1), Y15, Y4
	VADDPD Y4, Y0, Y0
	INCQ R11
	JMP  loop4

store4:
	VMOVUPD Y0, (DI)(R9*1)
	ADDQ $32, R9
	SUBQ $4, R10
	JMP  block4

done:
	VZEROUPPER
	RET

// func mulAdd2AVX(dst0, dst1, base, src []float64, off []int, g0, g1 []float64)
//
// mulAddAVX for two rows: dst0[k] and dst1[k] each start from base[k]
// (or +0) and add their own terms g0[j]·src[off[j]+k] and
// g1[j]·src[off[j]+k] in ascending j. Each src run is loaded once for
// both rows. Sixteen sums of each row advance together in eight
// accumulators, Y0–Y3 for dst0 and Y4–Y7 for dst1, while at least
// sixteen remain, then four of each.
TEXT ·mulAdd2AVX(SB), NOSPLIT, $0-168
	MOVQ dst0_base+0(FP), DI
	MOVQ dst0_len+8(FP), R10
	MOVQ dst1_base+24(FP), R14
	MOVQ base_base+48(FP), R8
	MOVQ base_len+56(FP), R13
	MOVQ src_base+72(FP), SI
	MOVQ off_base+96(FP), BX
	MOVQ off_len+104(FP), CX
	MOVQ g0_base+120(FP), DX
	MOVQ g1_base+144(FP), R15
	XORQ R9, R9 // byte offset of the current block in dst0, dst1, base and each term's src run

pair16:
	CMPQ R10, $16
	JLT  pair4
	TESTQ R13, R13
	JZ   pairZero16
	VMOVUPD (R8)(R9*1), Y0
	VMOVUPD 32(R8)(R9*1), Y1
	VMOVUPD 64(R8)(R9*1), Y2
	VMOVUPD 96(R8)(R9*1), Y3
	VMOVAPD Y0, Y4
	VMOVAPD Y1, Y5
	VMOVAPD Y2, Y6
	VMOVAPD Y3, Y7
	JMP  pairTerms16

pairZero16:
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	VXORPD Y4, Y4, Y4
	VXORPD Y5, Y5, Y5
	VXORPD Y6, Y6, Y6
	VXORPD Y7, Y7, Y7

pairTerms16:
	XORQ R11, R11

pairLoop16:
	CMPQ R11, CX
	JGE  pairStore16
	MOVQ (BX)(R11*8), R12
	LEAQ (SI)(R12*8), R12
	VBROADCASTSD (DX)(R11*8), Y14
	VBROADCASTSD (R15)(R11*8), Y15
	VMOVUPD (R12)(R9*1), Y8
	VMULPD  Y8, Y14, Y12
	VADDPD  Y12, Y0, Y0
	VMULPD  Y8, Y15, Y13
	VADDPD  Y13, Y4, Y4
	VMOVUPD 32(R12)(R9*1), Y9
	VMULPD  Y9, Y14, Y12
	VADDPD  Y12, Y1, Y1
	VMULPD  Y9, Y15, Y13
	VADDPD  Y13, Y5, Y5
	VMOVUPD 64(R12)(R9*1), Y10
	VMULPD  Y10, Y14, Y12
	VADDPD  Y12, Y2, Y2
	VMULPD  Y10, Y15, Y13
	VADDPD  Y13, Y6, Y6
	VMOVUPD 96(R12)(R9*1), Y11
	VMULPD  Y11, Y14, Y12
	VADDPD  Y12, Y3, Y3
	VMULPD  Y11, Y15, Y13
	VADDPD  Y13, Y7, Y7
	INCQ R11
	JMP  pairLoop16

pairStore16:
	VMOVUPD Y0, (DI)(R9*1)
	VMOVUPD Y1, 32(DI)(R9*1)
	VMOVUPD Y2, 64(DI)(R9*1)
	VMOVUPD Y3, 96(DI)(R9*1)
	VMOVUPD Y4, (R14)(R9*1)
	VMOVUPD Y5, 32(R14)(R9*1)
	VMOVUPD Y6, 64(R14)(R9*1)
	VMOVUPD Y7, 96(R14)(R9*1)
	ADDQ $128, R9
	SUBQ $16, R10
	JMP  pair16

pair4:
	CMPQ R10, $4
	JLT  pairDone
	TESTQ R13, R13
	JZ   pairZero4
	VMOVUPD (R8)(R9*1), Y0
	VMOVAPD Y0, Y4
	JMP  pairTerms4

pairZero4:
	VXORPD Y0, Y0, Y0
	VXORPD Y4, Y4, Y4

pairTerms4:
	XORQ R11, R11

pairLoop4:
	CMPQ R11, CX
	JGE  pairStore4
	MOVQ (BX)(R11*8), R12
	LEAQ (SI)(R12*8), R12
	VBROADCASTSD (DX)(R11*8), Y14
	VBROADCASTSD (R15)(R11*8), Y15
	VMOVUPD (R12)(R9*1), Y8
	VMULPD  Y8, Y14, Y12
	VADDPD  Y12, Y0, Y0
	VMULPD  Y8, Y15, Y13
	VADDPD  Y13, Y4, Y4
	INCQ R11
	JMP  pairLoop4

pairStore4:
	VMOVUPD Y0, (DI)(R9*1)
	VMOVUPD Y4, (R14)(R9*1)
	ADDQ $32, R9
	SUBQ $4, R10
	JMP  pair4

pairDone:
	VZEROUPPER
	RET

// func adamAVX(p, g, m, v []float64, lr, scale, c1, c2, beta1, oneMinusBeta1, beta2, oneMinusBeta2, eps float64, forms int)
//
// adamGo's expressions in its order of operations, with the shortcuts
// forms names: gi is g·scale under adamMulBatch (bit 0) and g/scale
// otherwise, and adamNoC1 (bit 1) skips the division by c1. VDIVPD and
// VSQRTPD round correctly, as Go's / and math.Sqrt do.
TEXT ·adamAVX(SB), NOSPLIT, $0-176
	MOVQ p_base+0(FP), DI
	MOVQ p_len+8(FP), CX
	MOVQ g_base+24(FP), SI
	MOVQ m_base+48(FP), R8
	MOVQ v_base+72(FP), R9
	VBROADCASTSD lr+96(FP), Y8
	VBROADCASTSD scale+104(FP), Y9
	VBROADCASTSD c1+112(FP), Y10
	VBROADCASTSD c2+120(FP), Y11
	VBROADCASTSD beta1+128(FP), Y12
	VBROADCASTSD oneMinusBeta1+136(FP), Y13
	VBROADCASTSD beta2+144(FP), Y14
	VBROADCASTSD oneMinusBeta2+152(FP), Y15
	VBROADCASTSD eps+160(FP), Y7
	MOVQ forms+168(FP), R10
	XORQ AX, AX

adamLoop:
	CMPQ AX, CX
	JGE  adamDone
	VMOVUPD (SI)(AX*8), Y0
	BTQ     $0, R10
	JCS     adamMulG
	VDIVPD  Y9, Y0, Y0         // gi = g/batch
	JMP     adamMoments

adamMulG:
	VMULPD  Y9, Y0, Y0         // gi = g·(1/batch)

adamMoments:
	VMULPD  (R8)(AX*8), Y12, Y1 // beta1·m
	VMULPD  Y0, Y13, Y2        // (1-beta1)·gi
	VADDPD  Y2, Y1, Y1         // m
	VMOVUPD Y1, (R8)(AX*8)
	VMULPD  (R9)(AX*8), Y14, Y2 // beta2·v
	VMULPD  Y0, Y15, Y3        // (1-beta2)·gi
	VMULPD  Y0, Y3, Y3         // ·gi
	VADDPD  Y3, Y2, Y2         // v
	VMOVUPD Y2, (R9)(AX*8)
	BTQ     $1, R10
	JCS     adamUpdate
	VDIVPD  Y10, Y1, Y1        // m/c1

adamUpdate:
	VMULPD  Y1, Y8, Y1         // lr·(m/c1)
	VDIVPD  Y11, Y2, Y2        // v/c2
	VSQRTPD Y2, Y2
	VADDPD  Y7, Y2, Y2         // sqrt(v/c2) + eps
	VDIVPD  Y2, Y1, Y1         // the step
	VMOVUPD (DI)(AX*8), Y3
	VSUBPD  Y1, Y3, Y3         // p - step
	VMOVUPD Y3, (DI)(AX*8)
	ADDQ    $4, AX
	JMP     adamLoop

adamDone:
	VZEROUPPER
	RET

// func applyReLUAVX(x []float64)
//
// VMAXPD returns its second source unless the first is greater, so with
// +0 as the second source it is x > 0 ? x : +0, NaN and −0 included.
// (Go's operand order lists the second source first.)
TEXT ·applyReLUAVX(SB), NOSPLIT, $0-24
	MOVQ x_base+0(FP), DI
	MOVQ x_len+8(FP), CX
	VXORPD Y1, Y1, Y1
	XORQ AX, AX

reluLoop:
	CMPQ AX, CX
	JGE  reluDone
	VMOVUPD (DI)(AX*8), Y0
	VMAXPD  Y1, Y0, Y0
	VMOVUPD Y0, (DI)(AX*8)
	ADDQ    $4, AX
	JMP     reluLoop

reluDone:
	VZEROUPPER
	RET

// func maskDeadAVX(x, act []float64)
//
// x[i] keeps its bits where act[i] > +0 (GT_OQ: false for NaN) and
// becomes +0 elsewhere.
TEXT ·maskDeadAVX(SB), NOSPLIT, $0-48
	MOVQ x_base+0(FP), DI
	MOVQ x_len+8(FP), CX
	MOVQ act_base+24(FP), SI
	VXORPD Y2, Y2, Y2
	XORQ AX, AX

maskLoop:
	CMPQ AX, CX
	JGE  maskDone
	VMOVUPD (SI)(AX*8), Y0
	VCMPPD  $0x1e, Y2, Y0, Y0
	VANDPD  (DI)(AX*8), Y0, Y0
	VMOVUPD Y0, (DI)(AX*8)
	ADDQ    $4, AX
	JMP     maskLoop

maskDone:
	VZEROUPPER
	RET

// func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL eaxArg+0(FP), AX
	MOVL ecxArg+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv() (eax, edx uint32)
TEXT ·xgetbv(SB), NOSPLIT, $0-8
	MOVL $0, CX
	XGETBV
	MOVL AX, eax+0(FP)
	MOVL DX, edx+4(FP)
	RET
