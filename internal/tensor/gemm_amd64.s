#include "textflag.h"

// func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL leaf+0(FP), AX
	MOVL sub+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv() (eax uint32)
TEXT ·xgetbv(SB), NOSPLIT, $0-4
	MOVL $0, CX
	XGETBV
	MOVL AX, eax+0(FP)
	RET

// One reduction step p of one output row: broadcast the row's A element
// (at address src), multiply it into the b row already loaded in Y8/Y9,
// and add the products into the row's accumulators.
#define ROW16(src, acc0, acc1) \
	VBROADCASTSS src, Y10; \
	VMULPS       Y8, Y10, Y12; \
	VMULPS       Y9, Y10, Y13; \
	VADDPS       Y12, acc0, acc0; \
	VADDPS       Y13, acc1, acc1

#define ROW8(src, acc) \
	VBROADCASTSS src, Y10; \
	VMULPS       Y8, Y10, Y12; \
	VADDPS       Y12, acc, acc

// func gemm4(out, a, b *float32, k, nc, ldo, rsA, psA, ldb int)
//
// For r < 4 and c < nc (a multiple of 8):
//
//	out[r*ldo+c] += Σ_{p<k} A(r,p)·b[p*ldb+c],  A(r,p) = a[r*rsA+p*psA]
//
// in blocks of 16 columns, then one of 8, each accumulated in registers in
// ascending p with a separate multiply and add (no FMA): the float32
// operation sequence of the scalar row routines. Every term counts, a zero
// A element's included, so ±0 against ±Inf or NaN in b gives NaN, as IEEE
// does.
//
// Registers: DI/BX out and b at the current column block, SI a, DX columns
// left, R8/R9 1·rsA/3·rsA bytes, R10 ldo bytes, R11 psA bytes, R12 ldb
// bytes; AX/R14 walk a and b along p, R13 counts p, CX is out row 1.
TEXT ·gemm4(SB), NOSPLIT, $0-72
	MOVQ out+0(FP), DI
	MOVQ a+8(FP), SI
	MOVQ b+16(FP), BX
	MOVQ nc+32(FP), DX
	MOVQ ldo+40(FP), R10
	SHLQ $2, R10
	MOVQ rsA+48(FP), R8
	SHLQ $2, R8
	LEAQ (R8)(R8*2), R9
	MOVQ psA+56(FP), R11
	SHLQ $2, R11
	MOVQ ldb+64(FP), R12
	SHLQ $2, R12

blocks:
	CMPQ DX, $16
	JLT  block8
	LEAQ (DI)(R10*1), CX
	VMOVUPS (DI), Y0
	VMOVUPS 32(DI), Y1
	VMOVUPS (CX), Y2
	VMOVUPS 32(CX), Y3
	VMOVUPS (DI)(R10*2), Y4
	VMOVUPS 32(DI)(R10*2), Y5
	VMOVUPS (CX)(R10*2), Y6
	VMOVUPS 32(CX)(R10*2), Y7
	MOVQ SI, AX
	MOVQ BX, R14
	MOVQ k+24(FP), R13

loop16:
	VMOVUPS (R14), Y8
	VMOVUPS 32(R14), Y9
	ROW16((AX), Y0, Y1)
	ROW16((AX)(R8*1), Y2, Y3)
	ROW16((AX)(R8*2), Y4, Y5)
	ROW16((AX)(R9*1), Y6, Y7)
	ADDQ R11, AX
	ADDQ R12, R14
	DECQ R13
	JNZ  loop16

	VMOVUPS Y0, (DI)
	VMOVUPS Y1, 32(DI)
	VMOVUPS Y2, (CX)
	VMOVUPS Y3, 32(CX)
	VMOVUPS Y4, (DI)(R10*2)
	VMOVUPS Y5, 32(DI)(R10*2)
	VMOVUPS Y6, (CX)(R10*2)
	VMOVUPS Y7, 32(CX)(R10*2)
	ADDQ $64, DI
	ADDQ $64, BX
	SUBQ $16, DX
	JMP  blocks

block8:
	TESTQ DX, DX
	JZ    done
	LEAQ (DI)(R10*1), CX
	VMOVUPS (DI), Y0
	VMOVUPS (CX), Y2
	VMOVUPS (DI)(R10*2), Y4
	VMOVUPS (CX)(R10*2), Y6
	MOVQ SI, AX
	MOVQ BX, R14
	MOVQ k+24(FP), R13

loop8:
	VMOVUPS (R14), Y8
	ROW8((AX), Y0)
	ROW8((AX)(R8*1), Y2)
	ROW8((AX)(R8*2), Y4)
	ROW8((AX)(R9*1), Y6)
	ADDQ R11, AX
	ADDQ R12, R14
	DECQ R13
	JNZ  loop8

	VMOVUPS Y0, (DI)
	VMOVUPS Y2, (CX)
	VMOVUPS Y4, (DI)(R10*2)
	VMOVUPS Y6, (CX)(R10*2)

done:
	VZEROUPPER
	RET

// func transpose8(dst, b *float32, ldb, ldd, blocks int)
//
// For j < 8 and p < 8·blocks: dst[p*ldd+j] = b[j*ldb+p]. Each block loads
// an 8×8 tile of b's rows, transposes it in registers (unpack pairs, then
// shuffle quads, then swap 128-bit halves) and stores it as 8 rows of dst.
// It only moves bits, so the packed panel holds b's values exactly.
//
// Registers: SI/DI walk b and dst along p, R8/R10 1·ldb/3·ldb bytes, R9/R11
// 1·ldd/3·ldd bytes, CX counts blocks, AX/BX address rows 4–7.
TEXT ·transpose8(SB), NOSPLIT, $0-40
	MOVQ dst+0(FP), DI
	MOVQ b+8(FP), SI
	MOVQ ldb+16(FP), R8
	SHLQ $2, R8
	LEAQ (R8)(R8*2), R10
	MOVQ ldd+24(FP), R9
	SHLQ $2, R9
	LEAQ (R9)(R9*2), R11
	MOVQ blocks+32(FP), CX
	TESTQ CX, CX
	JZ    tdone

tloop:
	LEAQ    (SI)(R8*4), AX
	VMOVUPS (SI), Y0
	VMOVUPS (SI)(R8*1), Y1
	VMOVUPS (SI)(R8*2), Y2
	VMOVUPS (SI)(R10*1), Y3
	VMOVUPS (AX), Y4
	VMOVUPS (AX)(R8*1), Y5
	VMOVUPS (AX)(R8*2), Y6
	VMOVUPS (AX)(R10*1), Y7

	VUNPCKLPS Y1, Y0, Y8
	VUNPCKHPS Y1, Y0, Y9
	VUNPCKLPS Y3, Y2, Y10
	VUNPCKHPS Y3, Y2, Y11
	VUNPCKLPS Y5, Y4, Y12
	VUNPCKHPS Y5, Y4, Y13
	VUNPCKLPS Y7, Y6, Y14
	VUNPCKHPS Y7, Y6, Y15

	VSHUFPS $0x44, Y10, Y8, Y0
	VSHUFPS $0xEE, Y10, Y8, Y1
	VSHUFPS $0x44, Y11, Y9, Y2
	VSHUFPS $0xEE, Y11, Y9, Y3
	VSHUFPS $0x44, Y14, Y12, Y4
	VSHUFPS $0xEE, Y14, Y12, Y5
	VSHUFPS $0x44, Y15, Y13, Y6
	VSHUFPS $0xEE, Y15, Y13, Y7

	VPERM2F128 $0x20, Y4, Y0, Y8
	VPERM2F128 $0x20, Y5, Y1, Y9
	VPERM2F128 $0x20, Y6, Y2, Y10
	VPERM2F128 $0x20, Y7, Y3, Y11
	VPERM2F128 $0x31, Y4, Y0, Y12
	VPERM2F128 $0x31, Y5, Y1, Y13
	VPERM2F128 $0x31, Y6, Y2, Y14
	VPERM2F128 $0x31, Y7, Y3, Y15

	LEAQ    (DI)(R9*4), BX
	VMOVUPS Y8, (DI)
	VMOVUPS Y9, (DI)(R9*1)
	VMOVUPS Y10, (DI)(R9*2)
	VMOVUPS Y11, (DI)(R11*1)
	VMOVUPS Y12, (BX)
	VMOVUPS Y13, (BX)(R9*1)
	VMOVUPS Y14, (BX)(R9*2)
	VMOVUPS Y15, (BX)(R11*1)

	ADDQ $32, SI
	LEAQ (DI)(R9*8), DI
	DECQ CX
	JNZ  tloop

tdone:
	VZEROUPPER
	RET

// One reduction step of one edge column: multiply the A lanes in Y1 by the
// column's B element (at address src) and add into the column's
// accumulator.
#define EDGECOL(src, t, acc) \
	VBROADCASTSS src, t; \
	VMULPS       t, Y1, t; \
	VADDPS       t, acc, acc

// func edge8(acc, a, b *float32, k, nc, psA, psB, csB int)
//
// For l < 8 and c < nc:
//
//	acc[c*8+l] += Σ_{p<k} a[p*psA+l]·b[p*psB+c*csB]
//
// one accumulator per column, in ascending p, each lane a separate
// multiply and add (no FMA): dotEdge's 8 output rows side by side, every
// term counted as in gemm4. Four columns share each A load, then one at a
// time.
//
// Registers: DI acc at the current column, SI a, BX b at the current
// column, DX k, CX columns left, R8/R9/R10 psA/psB/csB bytes, R13 3·csB
// bytes; AX/R11 walk a and b along p, R12 counts p.
TEXT ·edge8(SB), NOSPLIT, $0-64
	MOVQ acc+0(FP), DI
	MOVQ a+8(FP), SI
	MOVQ b+16(FP), BX
	MOVQ k+24(FP), DX
	MOVQ nc+32(FP), CX
	MOVQ psA+40(FP), R8
	SHLQ $2, R8
	MOVQ psB+48(FP), R9
	SHLQ $2, R9
	MOVQ csB+56(FP), R10
	SHLQ $2, R10
	LEAQ (R10)(R10*2), R13
	TESTQ DX, DX
	JZ    edone

ecols4:
	CMPQ    CX, $4
	JLT     ecols1
	VMOVUPS (DI), Y4
	VMOVUPS 32(DI), Y5
	VMOVUPS 64(DI), Y6
	VMOVUPS 96(DI), Y7
	MOVQ    SI, AX
	MOVQ    BX, R11
	MOVQ    DX, R12

eloop4:
	VMOVUPS (AX), Y1
	EDGECOL((R11), Y8, Y4)
	EDGECOL((R11)(R10*1), Y9, Y5)
	EDGECOL((R11)(R10*2), Y10, Y6)
	EDGECOL((R11)(R13*1), Y11, Y7)
	ADDQ    R8, AX
	ADDQ    R9, R11
	DECQ    R12
	JNZ     eloop4

	VMOVUPS Y4, (DI)
	VMOVUPS Y5, 32(DI)
	VMOVUPS Y6, 64(DI)
	VMOVUPS Y7, 96(DI)
	ADDQ    $128, DI
	LEAQ    (BX)(R10*4), BX
	SUBQ    $4, CX
	JMP     ecols4

ecols1:
	TESTQ   CX, CX
	JZ      edone
	VMOVUPS (DI), Y4
	MOVQ    SI, AX
	MOVQ    BX, R11
	MOVQ    DX, R12

eloop1:
	VMOVUPS (AX), Y1
	EDGECOL((R11), Y8, Y4)
	ADDQ    R8, AX
	ADDQ    R9, R11
	DECQ    R12
	JNZ     eloop1

	VMOVUPS Y4, (DI)
	ADDQ    $32, DI
	ADDQ    R10, BX
	DECQ    CX
	JMP     ecols1

edone:
	VZEROUPPER
	RET

// One reduction step of one pair: multiply the x_j lanes (at address src)
// into the x_i lanes in Y0 and add into the pair's accumulator.
#define PAIRCOL(src, t, acc) \
	VMULPS src, Y0, t; \
	VADDPS t, acc, acc

// func pair8(acc, xi, xj *float32, k, nc, ps int)
//
// For l < 8 and c < nc:
//
//	acc[c*8+l] += Σ_{p<k} xi[p*ps+l]·xj[p*ps+c*8+l]
//
// 8 samples side by side as the lanes of one vector, one accumulator per
// pair (i, j+c), in ascending p, each lane a separate multiply and add (no
// FMA): the float32 operation sequence of pairDotRef's dot. Four pairs
// share each load of x_i. A last group of fewer than 4 reads acc and xj
// for all 4 and stores only its own sums.
//
// Registers: DI acc at the current pair group, SI xi, BX xj at the current
// group, DX k, CX pairs left, R8 ps bytes; AX/R11 walk xi and xj along p,
// R12 counts p.
TEXT ·pair8(SB), NOSPLIT, $0-48
	MOVQ  acc+0(FP), DI
	MOVQ  xi+8(FP), SI
	MOVQ  xj+16(FP), BX
	MOVQ  k+24(FP), DX
	MOVQ  nc+32(FP), CX
	MOVQ  ps+40(FP), R8
	SHLQ  $2, R8
	TESTQ DX, DX
	JZ    pdone
	TESTQ CX, CX
	JZ    pdone

pcols:
	VMOVUPS (DI), Y4
	VMOVUPS 32(DI), Y5
	VMOVUPS 64(DI), Y6
	VMOVUPS 96(DI), Y7
	MOVQ    SI, AX
	MOVQ    BX, R11
	MOVQ    DX, R12

ploop:
	VMOVUPS (AX), Y0
	PAIRCOL((R11), Y8, Y4)
	PAIRCOL(32(R11), Y9, Y5)
	PAIRCOL(64(R11), Y10, Y6)
	PAIRCOL(96(R11), Y11, Y7)
	ADDQ    R8, AX
	ADDQ    R8, R11
	DECQ    R12
	JNZ     ploop

	VMOVUPS Y4, (DI)
	CMPQ    CX, $2
	JLT     pdone
	VMOVUPS Y5, 32(DI)
	CMPQ    CX, $3
	JLT     pdone
	VMOVUPS Y6, 64(DI)
	CMPQ    CX, $4
	JLT     pdone
	VMOVUPS Y7, 96(DI)
	ADDQ    $128, DI
	ADDQ    $128, BX
	SUBQ    $4, CX
	JG      pcols

pdone:
	VZEROUPPER
	RET
