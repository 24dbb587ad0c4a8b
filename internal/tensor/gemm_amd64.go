package tensor

// The AVX2 micro-kernel (gemm_amd64.s) under MatMul, MatMulAT and MatMulBT.
// Its row routines below honour matmul.go's contract with the scalar ones'
// float32 operations in the same order, so they are bitwise identical to
// them; init selects them once, from CPUID, with the elementwise routines.

func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)

func xgetbv() (eax uint32)

// gemm4 is the micro-kernel (see gemm_amd64.s); k must be positive.
//
//go:noescape
func gemm4(out, a, b *float32, k, nc, ldo, rsA, psA, ldb int, skipZero bool)

// transpose8 packs 8 rows of b, ldb apart, into 8·blocks rows of dst, ldd
// apart: dst[p*ldd+j] = b[j*ldb+p] (see gemm_amd64.s).
//
//go:noescape
func transpose8(dst, b *float32, ldb, ldd, blocks int)

// The elementwise routines (elementwise_amd64.s) are addRef, scaleRef and,
// over w's whole blocks of 8 with c1 = 1 − β₁ and c2 = 1 − β₂, adamRef.
//
//go:noescape
func addAVX2(d, s []float32)

//go:noescape
func scaleAVX2(d []float32, f float32)

//go:noescape
func adam8(w, gr, m, v []float32, b1, c1, b2, c2, lr float32, bc1, bc2, eps float64)

func adamAVX2(s AdamStep, w, g, m, v []float32) {
	n := len(w) &^ 7
	adam8(w[:n], g[:n], m[:n], v[:n], s.Beta1, 1-s.Beta1, s.Beta2, 1-s.Beta2, s.LR, s.BC1, s.BC2, float64(s.Eps))
	adamRef(s, w[n:], g[n:], m[n:], v[n:])
}

func init() {
	if hasAVX2() {
		mulRows, mulBTRows, mulATRows = matMulRowsAVX2, matMulBTRowsAVX2, matMulATRowsAVX2
		mulATAddRows = matMulATAddRowsAVX2
		addVec, scaleVec, adamVec = addAVX2, scaleAVX2, adamAVX2
	}
}

// hasAVX2 checks CPUID leaf 1 for OSXSAVE and AVX, XCR0 for saved XMM and
// YMM state, and CPUID leaf 7 for AVX2.
func hasAVX2() bool {
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

// matMulRowsAVX2 is matMulRows on the kernel: A(r, p) = a[r*k+p].
func matMulRowsAVX2(a, b, out []float32, k, n, lo, hi int) {
	hi4 := lo + (hi-lo)&^3
	for i := lo; i < hi4 && k > 0 && n >= 8; i += 4 {
		gemm4(&out[i*n], &a[i*k], &b[0], k, n&^7, n, k, 1, n, true)
	}
	dotEdge(a, b, out, k, n, k, 1, n, 1, lo, hi4, true)
	matMulRows(a, b, out, k, n, hi4, hi)
}

// matMulATRowsAVX2 is matMulATRows on the kernel: A(r, p) = a[p*m+r].
func matMulATRowsAVX2(a, b, out []float32, k, m, n, lo, hi int) {
	hi4 := lo + (hi-lo)&^3
	for i := lo; i < hi4 && k > 0 && n >= 8; i += 4 {
		gemm4(&out[i*n], &a[i], &b[0], k, n&^7, n, 1, m, n, true)
	}
	dotEdge(a, b, out, k, n, 1, m, n, 1, lo, hi4, true)
	matMulATRows(a, b, out, k, m, n, hi4, hi)
}

// matMulATAddRowsAVX2 is matMulATAddRows on the kernel.
func matMulATAddRowsAVX2(a, b, dst []float32, k, m, n int) {
	var buf [atAddBuf]float32
	rows, scratch := atAddBlock(buf[:], n)
	for i := 0; i < m; i += rows {
		blk := scratch[:min(rows, m-i)*n]
		clear(blk)
		matMulATRowsAVX2(a[i:], b, blk, k, m, n, 0, len(blk)/n)
		addAVX2(dst[i*n:i*n+len(blk)], blk)
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
					gemm4(&out[i*n+c], &a[i*k+p0], &panel[0], kc, w, n, k, 1, w, false)
				}
			}
		}
	}
	dotEdge(a, b, out, k, n, k, 1, 1, k, lo, hi4, false)
	matMulBTRows(a, b, out, k, n, hi4, hi)
}

// dotEdge sets the columns the kernel leaves, n&^7 up to n, of rows
// [lo, hi): out[r*n+j] = Σ_p A(r,p)·B(p,j) in ascending p, with A(r,p) =
// a[r*rsA+p*psA] and B(p,j) = b[p*psB+j*csB]. skipZero drops the terms of
// zero A elements, as the ikj routines do.
func dotEdge(a, b, out []float32, k, n, rsA, psA, psB, csB, lo, hi int, skipZero bool) {
	for r := lo; r < hi; r++ {
		for j := n &^ 7; j < n; j++ {
			var s float32
			for p := 0; p < k; p++ {
				if av := a[r*rsA+p*psA]; av != 0 || !skipZero {
					s += float32(av * b[p*psB+j*csB])
				}
			}
			out[r*n+j] = s
		}
	}
}
