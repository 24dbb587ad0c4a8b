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
