package tensor

import "unsafe"

// The AVX2 micro-kernel (gemm_amd64.s) under MatMul, MatMulAT and MatMulBT.
// Its row routines below honour matmul.go's contract: every term
// float32(A(r,p)·B(p,j)) is added in ascending p from +0, zero A elements
// included, with the scalar routines' float32 operations in the same
// order, so they are bitwise identical to them; init selects them once,
// from CPUID, with the elementwise routines.

func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)

func xgetbv() (eax uint32)

// gemm4 is the micro-kernel (see gemm_amd64.s); k must be positive.
//
//go:noescape
func gemm4(out, a, b *float32, k, nc, ldo, rsA, psA, ldb int)

// edge8 is dotEdge's kernel, 8 output rows as the lanes of one vector:
// acc[c*8+l] += Σ_p a[p*psA+l]·b[p*psB+c*csB] for l < 8, c < nc (see
// gemm_amd64.s).
//
//go:noescape
func edge8(acc, a, b *float32, k, nc, psA, psB, csB int)

// transpose8 packs 8 rows of b, ldb apart, into 8·blocks rows of dst, ldd
// apart: dst[p*ldd+j] = b[j*ldb+p] (see gemm_amd64.s).
//
//go:noescape
func transpose8(dst, b *float32, ldb, ldd, blocks int)

// pair8 is pairDotAVX2's kernel, 8 samples as the lanes of one vector:
// acc[c*8+l] += Σ_p xi[p*ps+l]·xj[p*ps+c*8+l] for l < 8 and c < nc. It
// reads acc and xj up to nc rounded up to a multiple of 4 (see
// gemm_amd64.s).
//
//go:noescape
func pair8(acc, xi, xj *float32, k, nc, ps int)

// The elementwise routines (elementwise_amd64.s) are addRef, scaleRef and,
// over w's whole blocks of 8 with c1 = 1 − β₁ and c2 = 1 − β₂, adamRef.
//
//go:noescape
func addAVX2(d, s []float32)

//go:noescape
func scaleAVX2(d []float32, f float32)

//go:noescape
func adam8(w, gr, m, v []float32, b1, c1, b2, c2, lr float32, bc1, bc2, eps float64)

// gateAVX2 is gateRef, and pairGradAVX2 is pairGradRef (ops.go, matmul.go).
//
//go:noescape
func gateAVX2(d, y []float32)

//go:noescape
func pairGradAVX2(dx, x, g []float32, f, n int)

// Float16SatAVX2 is quant's saturating fp16 encoder over whole blocks of 8:
// h[i] = toFloat16Sat(v[i]) for i < len(v), a multiple of 8, with h as long.
// It runs the encoder's integer formula lane by lane, so it is bitwise the
// scalar encoder, NaNs included. Quant selects it when HasAVX2 reports the
// CPU support; this package holds it beside the other vector routines.
//
//go:noescape
func Float16SatAVX2(h []uint16, v []float32)

// Float16SatResidualAVX2 is quant's fused error-feedback encode over whole
// blocks of 8: with v = g[i] + r[i], h[i] = toFloat16Sat(v) and r[i] =
// v − FromFloat16(h[i]), bit for bit.
//
//go:noescape
func Float16SatResidualAVX2(h []uint16, g, r []float32)

func adamAVX2(s AdamStep, w, g, m, v []float32) {
	n := len(w) &^ 7
	adam8(w[:n], g[:n], m[:n], v[:n], s.Beta1, 1-s.Beta1, s.Beta2, 1-s.Beta2, s.LR, s.BC1, s.BC2, float64(s.Eps))
	adamRef(s, w[n:], g[n:], m[n:], v[n:])
}

func init() {
	if HasAVX2() {
		mulRows, mulBTRows = matMulRowsAVX2, matMulBTRowsAVX2
		mulATAddRows = matMulATAddRowsAVX2
		addVec, scaleVec, adamVec = addAVX2, scaleAVX2, adamAVX2
		addSumRowsVec = addSumRowsAVX2
		gateVec, pairGradVec, pairDotVec = gateAVX2, pairGradAVX2, pairDotAVX2
	}
}

// HasAVX2 checks CPUID leaf 1 for OSXSAVE and AVX, XCR0 for saved XMM and
// YMM state, and CPUID leaf 7 for AVX2: the one CPU-feature rule, which
// quant reads too.
func HasAVX2() bool {
	maxLeaf, _, _, _ := cpuid(0, 0)
	_, _, c, _ := cpuid(1, 0)
	if maxLeaf < 7 || c&(1<<27) == 0 || c&(1<<28) == 0 || xgetbv()&6 != 6 {
		return false
	}
	_, b, _, _ := cpuid(7, 0)
	return b&(1<<5) != 0
}

// btPanelK is the reduction depth of one packed bᵀ panel: 16 columns × 256
// steps of float32 is 16 KiB, on the stack.
const btPanelK = 256

// matMulRowsAVX2 is matMulRows on the kernel, A(r, p) = a[r*rsA+p*psA].
func matMulRowsAVX2(a, b, out []float32, k, n, rsA, psA, lo, hi int) {
	hi4 := lo + (hi-lo)&^3
	for i := lo; i < hi4 && k > 0 && n >= 8; i += 4 {
		gemm4(&out[i*n], &a[i*rsA], &b[0], k, n&^7, n, rsA, psA, n)
	}
	dotEdge(a, b, out, k, n, rsA, psA, n, 1, lo, hi4)
	matMulRows(a, b, out, k, n, rsA, psA, hi4, hi)
}

// matMulATAddRowsAVX2 is matMulATAddRows on the kernel.
func matMulATAddRowsAVX2(a, b, dst []float32, k, m, n int) {
	var buf [atAddBuf]float32
	rows, scratch := atAddBlock(buf[:], n)
	for i := 0; i < m; i += rows {
		blk := scratch[:min(rows, m-i)*n]
		clear(blk)
		matMulRowsAVX2(a[i:], b, blk, k, n, 1, m, 0, len(blk)/n)
		addAVX2(dst[i*n:i*n+len(blk)], blk)
	}
}

// addSumRowsAVX2 is addSumRowsRef on addAVX2.
func addSumRowsAVX2(dst, a []float32, h, w int) {
	var buf [512]float32
	for c := 0; c < w; c += len(buf) {
		acc := buf[:min(len(buf), w-c)]
		clear(acc)
		for r := range h {
			addAVX2(acc, a[r*w+c:r*w+c+len(acc)])
		}
		addAVX2(dst[c:c+len(acc)], acc)
	}
}

// matMulBTRowsAVX2 is matMulBTRows on the kernel. The kernel reads b along
// p, so each 16-column (then 8-column) block of bᵀ is packed, ≤ btPanelK
// steps at a time, into a stack panel that every 4-row slab of [lo, hi)
// then accumulates from; out holds the partial sums between chunks.
// transpose8 packs 8 columns 8 steps at a time, and a chunk's last kc mod 8
// steps are copied one by one.
func matMulBTRowsAVX2(a, b, out []float32, k, n, lo, hi int) {
	hi4 := lo + (hi-lo)&^3
	if hi4 > lo {
		var panel [16 * btPanelK]float32
		for c := 0; c+8 <= n; c += 16 {
			w := min(16, n&^7-c)
			for p0 := 0; p0 < k; p0 += btPanelK {
				kc := min(btPanelK, k-p0)
				for j := 0; j < w; j += 8 {
					transpose8(&panel[j], &b[(c+j)*k+p0], k, w, kc/8)
					for p := kc &^ 7; p < kc; p++ {
						for jj := j; jj < j+8; jj++ {
							panel[p*w+jj] = b[(c+jj)*k+p0+p]
						}
					}
				}
				for i := lo; i < hi4; i += 4 {
					gemm4(&out[i*n+c], &a[i*k+p0], &panel[0], kc, w, n, k, 1, w)
				}
			}
		}
	}
	dotEdge(a, b, out, k, n, k, 1, 1, k, lo, hi4)
	matMulBTRows(a, b, out, k, n, hi4, hi)
}

// dotEdge sets the columns the kernel leaves, n&^7 up to n, of rows
// [lo, hi): out[r*n+j] = Σ_p A(r,p)·B(p,j) in ascending p, with A(r,p) =
// a[r*rsA+p*psA] and B(p,j) = b[p*psB+j*csB]. edge8 runs 8 rows at a time as
// the lanes of a vector, each lane the scalar sum from +0, reading the 8
// rows' A elements for one p as one vector: straight from a when they are
// adjacent (rsA = 1), else from a panel edgePacked packs them into.
func dotEdge(a, b, out []float32, k, n, rsA, psA, psB, csB, lo, hi int) {
	j0 := n &^ 7
	nc := n - j0
	if nc == 0 || k == 0 {
		return // out arrives zero-filled: an empty sum is already there
	}
	r := lo
	if rsA == 1 {
		var acc [8 * 7]float32
		for ; r+8 <= hi; r += 8 {
			clear(acc[:8*nc])
			edge8(&acc[0], &a[r], &b[j0*csB], k, nc, psA, psB, csB)
			edgeStore(out, &acc, n, r, 8)
		}
	}
	if r < hi {
		edgePacked(a, b, out, k, n, rsA, psA, psB, csB, r, hi)
	}
}

// edgePacked is dotEdge for rows that are not adjacent in a, or fewer
// than 8: each ≤ btPanelK-step chunk of 8 rows' A elements is packed into
// a stack panel, p-major, lanes past the last row left as they are (their
// sums are never stored). A full block with psA = 1 packs by transpose8, 8
// steps at a time.
func edgePacked(a, b, out []float32, k, n, rsA, psA, psB, csB, lo, hi int) {
	j0 := n &^ 7
	nc := n - j0
	var acc [8 * 7]float32
	var panel [8 * btPanelK]float32
	for r := lo; r < hi; r += 8 {
		lanes := min(8, hi-r)
		clear(acc[:8*nc])
		for p0 := 0; p0 < k; p0 += btPanelK {
			kc := min(btPanelK, k-p0)
			p := 0
			if lanes == 8 && psA == 1 {
				transpose8(&panel[0], &a[r*rsA+p0], rsA, 8, kc/8)
				p = kc &^ 7
			}
			for ; p < kc; p++ {
				for l := range lanes {
					panel[p*8+l] = a[(r+l)*rsA+(p0+p)*psA]
				}
			}
			edge8(&acc[0], &panel[0], &b[p0*psB+j0*csB], kc, nc, 8, psB, csB)
		}
		edgeStore(out, &acc, n, r, lanes)
	}
}

// edgeStore writes the first lanes rows of edge8's column-major sums into
// out's edge columns, rows r onwards.
func edgeStore(out []float32, acc *[8 * 7]float32, n, r, lanes int) {
	j0 := n &^ 7
	for c := range n - j0 {
		for l := range lanes {
			out[(r+l)*n+j0+c] = acc[c*8+l]
		}
	}
}

// pairPanel and pairAcc are the float32 counts of pairDotAVX2's panel of
// packed samples and of its pair sums, 12 and 8 KiB on the stack. Go
// zeroes both on every call, a tenth of the routine's time on the serving
// batch at 16 KiB each, so they are sized to the models' shapes: the
// serving F = 9 takes N = 128 in four chunks of p, and train_dense's
// (F, N) = (17, 16) one chunk and one block of sums.
const pairPanel, pairAcc = 3072, 2048

// align32 returns all but 7 elements of buf, the ones that start on a
// 32-byte boundary: pair8's loads, 5 per step, then never split a cache
// line, which ran it up to 2× slower. Goroutine stacks start and end on
// 2 KiB boundaries, so a stack copy moves a frame by a multiple of 2 KiB
// and the slice stays aligned.
func align32(buf []float32) []float32 {
	off := -int(uintptr(unsafe.Pointer(&buf[0]))/4) & 7
	return buf[off : len(buf)-7+off]
}

// pairDotAVX2 is pairDotRef with 8 samples as the 8 lanes of a vector: each
// lane sums its own sample's products in ascending p from +0, so every dot
// is bitwise pairDotRef's. A batch's last block is its last 8 samples, so
// it may form some of the previous block's dots again, with the same bits;
// only a batch of fewer than 8 runs a part-filled block.
//
// For each block the features from row i0 on, f' of them, are packed
// p-major into a stack panel, panel[p*8f'+i'*8+l], ≤ pairPanel floats of p
// at a time: by transpose8, 8 steps at a time, with a chunk's last kc mod 8
// steps, and a part-filled block, copied one by one. pair8 then adds each
// row's pairs over the chunk into acc, pair-major in out's order, which
// carries their sums between chunks. A row's last group of fewer than 4
// pairs reads past the row's sums and the panel's last feature, and the
// lanes of a part-filled block past its last sample sum whatever the panel
// holds; none of these sums is stored. Rows are taken in blocks whose sums,
// with 3 pairs of slack, fit acc. The strict upper triangle goes back to
// out 8 pairs × 8 samples at a time by transpose8, which lays it out as out
// does. F > 253, where one row's sums do not fit acc, runs pairDotRef.
func pairDotAVX2(x, out []float32, b, f, n int, full bool) {
	if 8*f+24 > pairAcc {
		pairDotRef(x, out, b, f, n, full)
		return
	}
	d := 1
	if full {
		d = 0
	}
	var panelBuf [pairPanel + 7]float32
	var accBuf [pairAcc + 7]float32
	panel, acc := align32(panelBuf[:]), align32(accBuf[:])
	ow := f * (f - 1) / 2
	for s0 := 0; s0 < b; s0 += 8 {
		if b >= 8 {
			s0 = min(s0, b-8)
		}
		lanes := min(8, b-s0)
		for i0, i1 := 0, 0; i0 < f; i0 = i1 {
			sums := 0
			for ; i1 < f && 8*(sums+f-i1-d)+24 <= pairAcc; i1++ {
				sums += f - i1 - d
			}
			clear(acc[:8*sums])
			ps := 8 * (f - i0)
			kc := (pairPanel - 24) / ps
			if kc >= 8 {
				kc &^= 7
			}
			for p0 := 0; p0 < n; p0 += kc {
				kk := min(kc, n-p0)
				for i := i0; i < f; i++ {
					src := (s0*f+i)*n + p0
					p := 0
					if lanes == 8 {
						transpose8(&panel[(i-i0)*8], &x[src], f*n, ps, kk/8)
						p = kk &^ 7
					}
					for ; p < kk; p++ {
						for l := range lanes {
							panel[p*ps+(i-i0)*8+l] = x[src+l*f*n+p]
						}
					}
				}
				a := 0
				for i := i0; i < i1; i++ {
					pair8(&acc[a], &panel[(i-i0)*8], &panel[(i+d-i0)*8], kk, f-i-d, ps)
					a += 8 * (f - i - d)
				}
			}
			if full {
				a := 0
				for i := i0; i < i1; i++ {
					for j := i; j < f; j++ {
						for l := range lanes {
							v := acc[a+l]
							out[((s0+l)*f+i)*f+j], out[((s0+l)*f+j)*f+i] = v, v
						}
						a += 8
					}
				}
				continue
			}
			k0, k := i0*(2*f-i0-1)/2, 0
			for ; lanes == 8 && k+8 <= sums; k += 8 {
				transpose8(&out[s0*ow+k0+k], &acc[k*8], 8, ow, 1)
			}
			for l := range lanes {
				for kk := k; kk < sums; kk++ {
					out[(s0+l)*ow+k0+kk] = acc[kk*8+l]
				}
			}
		}
	}
}
