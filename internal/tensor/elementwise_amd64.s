#include "textflag.h"

// The AVX2 elementwise routines under AddInPlace, ScaleInPlace and
// AdamUpdate. Each lane performs its scalar reference's (ops.go) IEEE
// operations in the same order with no FMA, and each binary operation takes
// as first source the operand the compiled reference does (x86 returns the
// first source's payload when both are NaN), so results match bit for bit,
// NaN payloads included. The one exception: when both terms of an Adam
// moment sum are NaN, which payload survives is the Go compiler's choice of
// operand order for the commutative add, and it differs under -race.

// func addAVX2(d, s []float32)
//
// d[i] += s[i] for i < len(d): 8 lanes at a time, then one.
TEXT ·addAVX2(SB), NOSPLIT, $0-48
	MOVQ d_base+0(FP), DI
	MOVQ d_len+8(FP), CX
	MOVQ s_base+24(FP), SI
	MOVQ CX, DX
	SHRQ $3, DX
	JZ   addTail

add8:
	VMOVUPS (DI), Y0
	VADDPS  (SI), Y0, Y0
	VMOVUPS Y0, (DI)
	ADDQ    $32, DI
	ADDQ    $32, SI
	DECQ    DX
	JNZ     add8

addTail:
	ANDQ $7, CX
	JZ   addDone

add1:
	VMOVSS (DI), X0
	VADDSS (SI), X0, X0
	VMOVSS X0, (DI)
	ADDQ   $4, DI
	ADDQ   $4, SI
	DECQ   CX
	JNZ    add1

addDone:
	VZEROUPPER
	RET

// func scaleAVX2(d []float32, f float32)
//
// d[i] *= f: 8 lanes at a time, then one.
TEXT ·scaleAVX2(SB), NOSPLIT, $0-28
	MOVQ         d_base+0(FP), DI
	MOVQ         d_len+8(FP), CX
	VBROADCASTSS f+24(FP), Y1
	MOVQ         CX, DX
	SHRQ         $3, DX
	JZ           scaleTail

scale8:
	VMOVUPS (DI), Y0
	VMULPS  Y1, Y0, Y0
	VMOVUPS Y0, (DI)
	ADDQ    $32, DI
	DECQ    DX
	JNZ     scale8

scaleTail:
	ANDQ $7, CX
	JZ   scaleDone

scale1:
	VMOVSS (DI), X0
	VMULSS X1, X0, X0
	VMOVSS X0, (DI)
	ADDQ   $4, DI
	DECQ   CX
	JNZ    scale1

scaleDone:
	VZEROUPPER
	RET

// Lanes 4k..4k+3 of the update ratio: from the new moments m (mlo) and v
// (vlo) in float32, mhat/(√vhat + ε) with mhat = m/bc1 and vhat = v/bc2,
// each step in float64, rounded to float32 in the low half of out (outx).
#define RATIO4(mlo, vlo, t, out, outx) \
	VCVTPS2PD  mlo, out; \
	VDIVPD     Y13, out, out; \
	VCVTPS2PD  vlo, t; \
	VDIVPD     Y14, t, t; \
	VSQRTPD    t, t; \
	VADDPD     Y15, t, t; \
	VDIVPD     t, out, out; \
	VCVTPD2PSY out, outx

// func adam8(w, gr, m, v []float32, b1, c1, b2, c2, lr float32, bc1, bc2, eps float64)
//
// For i < len(w) (a multiple of 8), adamRef's element update:
//
//	m[i] = b1·m[i] + c1·g[i]
//	v[i] = b2·v[i] + (c2·g[i])·g[i]
//	w[i] -= lr · float32((m[i]/bc1) / (√(v[i]/bc2) + eps))
//
// Registers: DI/SI/BX/DX walk w/gr/m/v, CX counts blocks of 8; Y8–Y12 hold
// b1, c1, b2, c2, lr in float32 lanes, Y13–Y15 bc1, bc2, eps in float64.
TEXT ·adam8(SB), NOSPLIT, $0-144
	MOVQ w_base+0(FP), DI
	MOVQ w_len+8(FP), CX
	MOVQ gr_base+24(FP), SI
	MOVQ m_base+48(FP), BX
	MOVQ v_base+72(FP), DX
	SHRQ $3, CX
	JZ   adamDone
	VBROADCASTSS b1+96(FP), Y8
	VBROADCASTSS c1+100(FP), Y9
	VBROADCASTSS b2+104(FP), Y10
	VBROADCASTSS c2+108(FP), Y11
	VBROADCASTSS lr+112(FP), Y12
	VBROADCASTSD bc1+120(FP), Y13
	VBROADCASTSD bc2+128(FP), Y14
	VBROADCASTSD eps+136(FP), Y15

adamLoop:
	VMOVUPS (SI), Y0
	VMULPS  (BX), Y8, Y1
	VMULPS  Y0, Y9, Y2
	VADDPS  Y2, Y1, Y1
	VMOVUPS Y1, (BX)
	VMULPS  (DX), Y10, Y2
	VMULPS  Y0, Y11, Y3
	VMULPS  Y0, Y3, Y3
	VADDPS  Y3, Y2, Y2
	VMOVUPS Y2, (DX)
	RATIO4(X1, X2, Y3, Y4, X4)
	VEXTRACTF128 $1, Y1, X1
	VEXTRACTF128 $1, Y2, X2
	RATIO4(X1, X2, Y3, Y5, X5)
	VINSERTF128  $1, X5, Y4, Y4
	VMULPS       Y12, Y4, Y4
	VMOVUPS      (DI), Y5
	VSUBPS       Y4, Y5, Y5
	VMOVUPS      Y5, (DI)
	ADDQ         $32, DI
	ADDQ         $32, SI
	ADDQ         $32, BX
	ADDQ         $32, DX
	DECQ         CX
	JNZ          adamLoop

adamDone:
	VZEROUPPER
	RET

// func gateAVX2(d, y []float32)
//
// gateRef: d[i] = +0 wherever !(y[i] > 0), 8 lanes at a time, then one.
// The ordered compare GT_OQ is false for NaN, and the AND either keeps d's
// bits or clears them all, so NaN, −0 and negatives in y zero d exactly as
// the branch does, and every kept element keeps its payload.
TEXT ·gateAVX2(SB), NOSPLIT, $0-48
	MOVQ   d_base+0(FP), DI
	MOVQ   d_len+8(FP), CX
	MOVQ   y_base+24(FP), SI
	VXORPS Y15, Y15, Y15
	MOVQ   CX, DX
	SHRQ   $3, DX
	JZ     gateTail

gate8:
	VMOVUPS (SI), Y0
	VCMPPS  $0x1e, Y15, Y0, Y0
	VANDPS  (DI), Y0, Y0
	VMOVUPS Y0, (DI)
	ADDQ    $32, DI
	ADDQ    $32, SI
	DECQ    DX
	JNZ     gate8

gateTail:
	ANDQ $7, CX
	JZ   gateDone

gate1:
	VMOVSS (SI), X0
	VCMPSS $0x1e, X15, X0, X0
	VMOVSS (DI), X1
	VANDPS X1, X0, X0
	VMOVSS X0, (DI)
	ADDQ   $4, DI
	ADDQ   $4, SI
	DECQ   CX
	JNZ    gate1

gateDone:
	VZEROUPPER
	RET

// func pairGradAVX2(dx, x, g []float32, f, n int)
//
// pairGradRef on one sample: for i < f and i < j < f, with g read in that
// order, a g that is not ±0 (NaN included) adds g·x[j] into dx[i] and
// g·x[i] into dx[j], a separate multiply and add per element (n ≥ 1).
// Row i is walked 16, then 8 elements at a time, then one: for each block
// the j loop keeps dx[i]'s block in registers, so every element still
// takes its additions in (i, j) order, and only dx[j]'s go through memory.
//
// Registers: DI/BX dx and x, SI g at row i's first pair, R8 row i's byte
// offset, R14 row i+1's, R9 row j's, R12 the block's offset within a row,
// R10 a row's bytes, R11 f rows' bytes, DX the bytes blocks of 8 cover;
// AX walks g, CX and R13 are scratch. Y1/Y5 hold dx[i]'s block, Y2/Y6
// x[i]'s, Y0 the broadcast g.
TEXT ·pairGradAVX2(SB), NOSPLIT, $0-88
	MOVQ   dx_base+0(FP), DI
	MOVQ   x_base+24(FP), BX
	MOVQ   g_base+48(FP), SI
	MOVQ   f+72(FP), R11
	MOVQ   n+80(FP), R10
	SHLQ   $2, R10
	IMULQ  R10, R11
	MOVQ   R10, DX
	ANDQ   $-32, DX
	VXORPS X15, X15, X15
	XORQ   R8, R8

pgRowI:
	LEAQ (R8)(R10*1), R14
	CMPQ R14, R11
	JGE  pgDone
	XORQ R12, R12

pgBlk16:
	LEAQ    64(R12), CX
	CMPQ    CX, DX
	JGT     pgBlk8
	LEAQ    (R8)(R12*1), R13
	VMOVUPS (DI)(R13*1), Y1
	VMOVUPS 32(DI)(R13*1), Y5
	VMOVUPS (BX)(R13*1), Y2
	VMOVUPS 32(BX)(R13*1), Y6
	MOVQ    SI, AX
	MOVQ    R14, R9

pgJ16:
	VBROADCASTSS (AX), Y0
	ADDQ         $4, AX
	VUCOMISS     X15, X0
	JNE          pgDo16
	JPS          pgDo16
	JMP          pgNext16

pgDo16:
	LEAQ    (R9)(R12*1), R13
	VMULPS  (BX)(R13*1), Y0, Y3
	VADDPS  Y3, Y1, Y1
	VMULPS  32(BX)(R13*1), Y0, Y7
	VADDPS  Y7, Y5, Y5
	VMULPS  Y2, Y0, Y3
	VADDPS  (DI)(R13*1), Y3, Y3
	VMOVUPS Y3, (DI)(R13*1)
	VMULPS  Y6, Y0, Y7
	VADDPS  32(DI)(R13*1), Y7, Y7
	VMOVUPS Y7, 32(DI)(R13*1)

pgNext16:
	ADDQ    R10, R9
	CMPQ    R9, R11
	JLT     pgJ16
	LEAQ    (R8)(R12*1), R13
	VMOVUPS Y1, (DI)(R13*1)
	VMOVUPS Y5, 32(DI)(R13*1)
	ADDQ    $64, R12
	JMP     pgBlk16

pgBlk8:
	LEAQ    32(R12), CX
	CMPQ    CX, DX
	JGT     pgTail
	LEAQ    (R8)(R12*1), R13
	VMOVUPS (DI)(R13*1), Y1
	VMOVUPS (BX)(R13*1), Y2
	MOVQ    SI, AX
	MOVQ    R14, R9

pgJ8:
	VBROADCASTSS (AX), Y0
	ADDQ         $4, AX
	VUCOMISS     X15, X0
	JNE          pgDo8
	JPS          pgDo8
	JMP          pgNext8

pgDo8:
	LEAQ    (R9)(R12*1), R13
	VMULPS  (BX)(R13*1), Y0, Y3
	VADDPS  Y3, Y1, Y1
	VMULPS  Y2, Y0, Y3
	VADDPS  (DI)(R13*1), Y3, Y3
	VMOVUPS Y3, (DI)(R13*1)

pgNext8:
	ADDQ    R10, R9
	CMPQ    R9, R11
	JLT     pgJ8
	LEAQ    (R8)(R12*1), R13
	VMOVUPS Y1, (DI)(R13*1)
	ADDQ    $32, R12

pgTail:
	CMPQ   R12, R10
	JGE    pgNextI
	LEAQ   (R8)(R12*1), R13
	VMOVSS (DI)(R13*1), X1
	VMOVSS (BX)(R13*1), X2
	MOVQ   SI, AX
	MOVQ   R14, R9

pgJ1:
	VMOVSS   (AX), X0
	ADDQ     $4, AX
	VUCOMISS X15, X0
	JNE      pgDo1
	JPS      pgDo1
	JMP      pgNext1

pgDo1:
	LEAQ   (R9)(R12*1), R13
	VMULSS (BX)(R13*1), X0, X3
	VADDSS X3, X1, X1
	VMULSS X2, X0, X3
	VADDSS (DI)(R13*1), X3, X3
	VMOVSS X3, (DI)(R13*1)

pgNext1:
	ADDQ   R10, R9
	CMPQ   R9, R11
	JLT    pgJ1
	LEAQ   (R8)(R12*1), R13
	VMOVSS X1, (DI)(R13*1)
	ADDQ   $4, R12
	JMP    pgTail

pgNextI:
	MOVQ AX, SI
	ADDQ R10, R8
	JMP  pgRowI

pgDone:
	VZEROUPPER
	RET

// Eight copies of a 32-bit constant: a ymm memory operand.
#define CONST8(name, v) \
	DATA name<>+0(SB)/4, v; \
	DATA name<>+4(SB)/4, v; \
	DATA name<>+8(SB)/4, v; \
	DATA name<>+12(SB)/4, v; \
	DATA name<>+16(SB)/4, v; \
	DATA name<>+20(SB)/4, v; \
	DATA name<>+24(SB)/4, v; \
	DATA name<>+28(SB)/4, v; \
	GLOBL name<>(SB), RODATA|NOPTR, $32

CONST8(halfAbs, $0x7fffffff)
CONST8(halfOne, $1)
CONST8(halfRound, $0xc8000fff)
CONST8(halfMax, $0x7bff)
CONST8(halfPoint5, $0x3f000000)
CONST8(halfSubMin, $0x38800000)
CONST8(halfInfMin, $0x7f7fffff)
CONST8(halfInf, $0x7c00)
CONST8(halfNaNMin, $0x7f800000)
CONST8(halfNaN, $0x7e00)
CONST8(halfRebias, $0x38000000)
CONST8(halfQNaN, $0x7fc00000)

// Y8–Y15 hold the encoder's register constants.
#define HALFCONSTS \
	VMOVDQU halfInf<>(SB), Y8; \
	VMOVDQU halfInfMin<>(SB), Y9; \
	VMOVDQU halfSubMin<>(SB), Y10; \
	VMOVDQU halfPoint5<>(SB), Y11; \
	VMOVDQU halfMax<>(SB), Y12; \
	VMOVDQU halfRound<>(SB), Y13; \
	VMOVDQU halfOne<>(SB), Y14; \
	VMOVDQU halfAbs<>(SB), Y15

// quant's toFloat16Sat on the 8 float32 lanes of Y0, its integer formula
// lane by lane. Out: Y1 the magnitudes a, Y2 the sign bits, Y3 the halves'
// magnitudes (sign not yet set), Y4 the subnormal case's float32 sum
// a + 0.5, and the case masks Y6 (a < 2⁻¹⁴: subnormal half), Y7 (a ≥ Inf)
// and Y5 (a > Inf: NaN).
#define HALF8 \
	VPAND     Y15, Y0, Y1; \
	VPXOR     Y1, Y0, Y2; \
	VPSRLD    $13, Y1, Y3; \
	VPAND     Y14, Y3, Y3; \
	VPADDD    Y1, Y3, Y3; \
	VPADDD    Y13, Y3, Y3; \
	VPSRLD    $13, Y3, Y3; \
	VPMINUD   Y12, Y3, Y3; \
	VADDPS    Y11, Y1, Y4; \
	VPSUBD    Y11, Y4, Y5; \
	VPCMPGTD  Y1, Y10, Y6; \
	VPBLENDVB Y6, Y5, Y3, Y3; \
	VPCMPGTD  Y9, Y1, Y7; \
	VPBLENDVB Y7, Y8, Y3, Y3; \
	VPCMPGTD  halfNaNMin<>(SB), Y1, Y5; \
	VPBLENDVB Y5, halfNaN<>(SB), Y3, Y3

// The signed halves of HALF8 (Y2 the sign bits, Y3 the magnitudes) stored
// as 8 uint16s at DI.
#define HALFSTORE \
	VPSRLD       $16, Y2, Y2; \
	VPOR         Y2, Y3, Y3; \
	VEXTRACTI128 $1, Y3, X2; \
	VPACKUSDW    X2, X3, X3; \
	VMOVDQU      X3, (DI)

// func Float16SatAVX2(h []uint16, v []float32)
TEXT ·Float16SatAVX2(SB), NOSPLIT, $0-48
	MOVQ h_base+0(FP), DI
	MOVQ v_base+24(FP), SI
	MOVQ v_len+32(FP), CX
	SHRQ $3, CX
	JZ   halfDone
	HALFCONSTS

half8:
	VMOVUPS (SI), Y0
	HALF8
	HALFSTORE
	ADDQ    $32, SI
	ADDQ    $16, DI
	DECQ    CX
	JNZ     half8

halfDone:
	VZEROUPPER
	RET

// func Float16SatResidualAVX2(h []uint16, g, r []float32)
//
// With v = g + r (g the first operand, as AddInPlace adds), the halves of
// v, and r rewritten to v − FromFloat16(h). The decoded half is formed
// exactly: a normal half's bits shifted back and rebiased; a subnormal
// one as (a + 0.5) − 0.5, the encoder's own sum less 0.5, which is exact;
// Inf and NaN as the table holds them.
TEXT ·Float16SatResidualAVX2(SB), NOSPLIT, $0-72
	MOVQ h_base+0(FP), DI
	MOVQ g_base+24(FP), SI
	MOVQ g_len+32(FP), CX
	MOVQ r_base+48(FP), DX
	SHRQ $3, CX
	JZ   halfResDone
	HALFCONSTS

halfRes8:
	VMOVUPS   (SI), Y0
	VADDPS    (DX), Y0, Y0
	HALF8
	VPSLLD    $13, Y3, Y1
	VPADDD    halfRebias<>(SB), Y1, Y1
	VSUBPS    Y11, Y4, Y4
	VPBLENDVB Y6, Y4, Y1, Y1
	VPBLENDVB Y7, halfNaNMin<>(SB), Y1, Y1
	VPBLENDVB Y5, halfQNaN<>(SB), Y1, Y1
	VPOR      Y2, Y1, Y1
	VSUBPS    Y1, Y0, Y0
	VMOVUPS   Y0, (DX)
	HALFSTORE
	ADDQ      $32, SI
	ADDQ      $32, DX
	ADDQ      $16, DI
	DECQ      CX
	JNZ       halfRes8

halfResDone:
	VZEROUPPER
	RET
