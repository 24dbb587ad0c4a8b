package tensor

import "fmt"

// MatMul returns a @ b for a of shape (m, k) and b of shape (k, n), on the
// calling goroutine.
func MatMul(a, b *Tensor) *Tensor {
	if len(a.shape) != 2 || len(b.shape) != 2 || a.shape[1] != b.shape[0] {
		panic(fmt.Sprintf("tensor: MatMul shapes %v, %v", a.shape, b.shape))
	}
	m, k, n := a.shape[0], a.shape[1], b.shape[1]
	out := New(m, n)
	mulRows(a.data, b.data, out.data, k, n, k, 1, 0, m)
	return out
}

// MatMulBT returns a @ bᵀ for a of shape (m, k) and b of shape (n, k).
// This is the natural layout for Linear layers storing weights as
// (outFeatures, inFeatures).
func MatMulBT(a, b *Tensor) *Tensor {
	if len(a.shape) != 2 || len(b.shape) != 2 || a.shape[1] != b.shape[1] {
		panic(fmt.Sprintf("tensor: MatMulBT shapes %v, %v", a.shape, b.shape))
	}
	out := New(a.shape[0], b.shape[0])
	MatMulBTInto(out, a, b)
	return out
}

// MatMulBTInto writes a @ bᵀ into out, of shape (m, n), for a of shape
// (m, k) and b of shape (n, k), overwriting whatever out held. It is
// MatMulBT's one path: out is zeroed and filled by the same row routine,
// so the result is bitwise MatMulBT's. It allocates nothing.
func MatMulBTInto(out, a, b *Tensor) {
	if len(a.shape) != 2 || len(b.shape) != 2 || a.shape[1] != b.shape[1] ||
		len(out.shape) != 2 || out.shape[0] != a.shape[0] || out.shape[1] != b.shape[0] {
		panic(fmt.Sprintf("tensor: MatMulBTInto shapes %v = %v x %vᵀ", out.shape, a.shape, b.shape))
	}
	m, k, n := a.shape[0], a.shape[1], b.shape[0]
	clear(out.data)
	mulBTRows(a.data, b.data, out.data, k, n, 0, m)
}

// MatMulAT returns aᵀ @ b for a of shape (k, m) and b of shape (k, n).
// This is the weight-gradient kernel: dW = dYᵀ @ X in (out, in) layout.
func MatMulAT(a, b *Tensor) *Tensor {
	if len(a.shape) != 2 || len(b.shape) != 2 || a.shape[0] != b.shape[0] {
		panic(fmt.Sprintf("tensor: MatMulAT shapes %v, %v", a.shape, b.shape))
	}
	k, m, n := a.shape[0], a.shape[1], b.shape[1]
	out := New(m, n)
	mulRows(a.data, b.data, out.data, k, n, 1, m, 0, m)
	return out
}

// AddMatMulAT adds aᵀ @ b into dst, of shape (m, n), for a of shape (k, m)
// and b of shape (k, n): the weight-gradient accumulation dW += dYᵀ @ X
// with no dW temporary. Each element's dot product is formed from zero, in
// ascending p, as MatMulAT forms it, and added to dst once, so dst ends
// bitwise as AddInPlace(dst, MatMulAT(a, b)) leaves it, whatever dst held.
// Output rows are formed a block at a time in a stack buffer: it allocates
// nothing unless n > atAddBuf/4.
func AddMatMulAT(dst, a, b *Tensor) {
	if len(a.shape) != 2 || len(b.shape) != 2 || a.shape[0] != b.shape[0] ||
		len(dst.shape) != 2 || dst.shape[0] != a.shape[1] || dst.shape[1] != b.shape[1] {
		panic(fmt.Sprintf("tensor: AddMatMulAT shapes %v += %vᵀ x %v", dst.shape, a.shape, b.shape))
	}
	k, m, n := a.shape[0], a.shape[1], b.shape[1]
	if n > 0 {
		mulATAddRows(a.data, b.data, dst.data, k, m, n)
	}
}

// atAddBuf is the float32 count of AddMatMulAT's stack buffer, 16 KiB.
const atAddBuf = 4096

// atAddBlock sizes AddMatMulAT's blocks: as many whole 4-row slabs of n
// columns as buf holds, or one slab in a heap buffer when buf holds none.
func atAddBlock(buf []float32, n int) (rows int, scratch []float32) {
	if rows = len(buf) / n &^ 3; rows == 0 {
		return 4, make([]float32, 4*n)
	}
	return rows, buf
}

// BatchedPairwiseDot computes, for a (B, F, N) tensor, the pairwise dot
// products between the F feature vectors of every sample: output (B, F, F)
// with out[b,i,j] = <x[b,i,:], x[b,j,:]>, each the sum of the products
// float32(x[b,i,p]·x[b,j,p]) in ascending p from +0. It is DLRM's
// interaction with the diagonal and each pair mirrored, on the routine
// PairwiseUpperInto runs: no batched GEMM, but 8 samples to a vector where
// the CPU has AVX2.
func BatchedPairwiseDot(x *Tensor) *Tensor {
	if len(x.shape) != 3 {
		panic("tensor: BatchedPairwiseDot requires a (B,F,N) tensor")
	}
	b, f, n := x.shape[0], x.shape[1], x.shape[2]
	out := New(b, f, f)
	pairDotVec(x.data, out.data, b, f, n, true)
	return out
}

// PairwiseUpperInto writes the pairwise-dot interaction's strict upper
// triangle into out: for x of shape (B, F, N), out (B, F(F−1)/2) holds each
// sample's pairs (i, j), i < j, in row-major order, each dot the sum of the
// products float32(x[b,i,p]·x[b,j,p]) in ascending p from +0. Every element
// of out is overwritten. It allocates nothing.
func PairwiseUpperInto(out, x *Tensor) {
	if len(x.shape) != 3 || len(out.shape) != 2 || out.shape[0] != x.shape[0] ||
		out.shape[1] != x.shape[1]*(x.shape[1]-1)/2 {
		panic(fmt.Sprintf("tensor: PairwiseUpperInto shapes out %v, x %v", out.shape, x.shape))
	}
	pairDotVec(x.data, out.data, x.shape[0], x.shape[1], x.shape[2], false)
}

// pairDotVec is the pairwise-dot routine under BatchedPairwiseDot and
// PairwiseUpperInto: pairDotRef, or the AVX2 routine init selects, which
// forms every dot with the same float32 operations in the same order.
var pairDotVec = pairDotRef

// pairDotRef writes the pairwise dots of the b samples of x, (b, f, n): the
// strict upper triangle in row-major order into out (b, f(f−1)/2), or with
// full the diagonal and both triangles into out (b, f, f). Each pass over
// x_i runs four dots: four independent add chains keep the loop busy, where
// a single chain waits on every add. A group that runs past the last row
// repeats that row and drops the extra sums.
func pairDotRef(x, out []float32, b, f, n int, full bool) {
	d := 1
	if full {
		d = 0
	}
	k := 0
	for s := range b {
		xs := x[s*f*n : (s+1)*f*n]
		for i := range f {
			vi := xs[i*n : (i+1)*n]
			for j := i + d; j < f; j += 4 {
				v0 := xs[j*n:][:n]
				v1 := xs[min(j+1, f-1)*n:][:n]
				v2 := xs[min(j+2, f-1)*n:][:n]
				v3 := xs[min(j+3, f-1)*n:][:n]
				var d0, d1, d2, d3 float32
				for p, v := range vi {
					d0 += float32(v * v0[p])
					d1 += float32(v * v1[p])
					d2 += float32(v * v2[p])
					d3 += float32(v * v3[p])
				}
				ds := [4]float32{d0, d1, d2, d3}
				for c, dot := range ds[:min(4, f-j)] {
					if full {
						out[(s*f+i)*f+j+c], out[(s*f+j+c)*f+i] = dot, dot
					} else {
						out[k] = dot
						k++
					}
				}
			}
		}
	}
}

// PairwiseUpperGrad is the backward of the pairwise-dot interaction's
// strict upper triangle. For x of shape (B, F, N) and dy of shape
// (B, F(F−1)/2), each sample's pairs (i, j), i < j, in row-major order, it
// returns dx of shape (B, F, N) with dx[b,i,:] = Σ_{j≠i} dy[b,(i,j)]·x[b,j,:],
// formed pair by pair in that order and skipping pairs whose gradient is
// ±0.
func PairwiseUpperGrad(x, dy *Tensor) *Tensor {
	if len(x.shape) != 3 || len(dy.shape) != 2 || dy.shape[0] != x.shape[0] ||
		dy.shape[1] != x.shape[1]*(x.shape[1]-1)/2 {
		panic(fmt.Sprintf("tensor: PairwiseUpperGrad shapes x %v, dy %v", x.shape, dy.shape))
	}
	b, f, n := x.shape[0], x.shape[1], x.shape[2]
	ow := dy.shape[1]
	dx := New(b, f, n)
	if n == 0 {
		return dx
	}
	for s := range b {
		pairGradVec(dx.data[s*f*n:(s+1)*f*n], x.data[s*f*n:(s+1)*f*n], dy.data[s*ow:(s+1)*ow], f, n)
	}
	return dx
}

// pairGradVec is PairwiseUpperGrad's per-sample routine: pairGradRef, or
// the AVX2 routine init selects, which repeats its float32 operations in
// the same order.
var pairGradVec = pairGradRef

// pairGradRef adds one sample's pairwise-dot gradient into dx, (F, N):
// for each pair (i, j) in order whose g is not ±0, dx[i] += g·x[j] and
// dx[j] += g·x[i], element by element.
func pairGradRef(dx, x, g []float32, f, n int) {
	k := 0
	for i := 0; i < f; i++ {
		for j := i + 1; j < f; j++ {
			gk := g[k]
			k++
			if gk == 0 {
				continue
			}
			vi, vj := x[i*n:(i+1)*n], x[j*n:(j+1)*n]
			dvi, dvj := dx[i*n:(i+1)*n], dx[j*n:(j+1)*n]
			for p := range vi {
				dvi[p] += float32(gk * vj[p])
				dvj[p] += float32(gk * vi[p])
			}
		}
	}
}

// --- Row-range routines ---
//
// Each entry point above calls one routine below over its whole output
// range, on the calling goroutine: parallelism lives one level up, in the
// trainer's ranks and the server's batch executors, never inside a
// multiply. Contract, which any faster routine must honour: out arrives
// zero-filled, each output element is written once, and it is the plain
// IEEE sum of every term float32(A(r,p)·B(p,j)), added in ascending p
// (reduction-index) order starting from +0, terms of zero A elements
// included. The result is then bitwise identical however the rows are cut
// into ranges, and MatMul, MatMulBT and MatMulAT give the same bits for the
// same product whatever layout their operands arrive in — the training
// golden trajectories depend on it. Every product is written float32(a*b):
// the conversion forbids fusing it into the add, which arm64, ppc64le and
// s390x would otherwise do.
//
// The AVX2 micro-kernel's row routines (gemm_amd64.go) honour the same
// contract with the same float32 operations, and replace the scalar
// routines when init finds the CPU support. The scalar routines stay the
// reference, and the path on CPUs without AVX2 and off amd64.
var mulRows, mulBTRows = matMulRows, matMulBTRows

// mulATAddRows is AddMatMulAT's routine, selected with the row routines: it
// calls its own row routine and add directly, so its stack buffer stays on
// the stack.
var mulATAddRows = matMulATAddRows

// matMulRows computes rows [lo, hi) of A @ b for A(r, p) = a[r*rsA+p*psA]
// and b (k, n): MatMul's a (m, k) has rsA = k, psA = 1, and MatMulAT's
// a (k, m) has rsA = 1, psA = m. The ikj loop order keeps the inner loop
// streaming over b's rows.
func matMulRows(a, b, out []float32, k, n, rsA, psA, lo, hi int) {
	for i := lo; i < hi; i++ {
		orow := out[i*n : (i+1)*n]
		for p, ap := 0, i*rsA; p < k; p, ap = p+1, ap+psA {
			av := a[ap]
			for j, bv := range b[p*n : (p+1)*n] {
				orow[j] += float32(av * bv)
			}
		}
	}
}

// matMulBTRows computes rows [lo, hi) of a @ bᵀ. Full 4-row slabs take the
// register-tiled kernel: 16 independent accumulators break the dot product's
// loop-carried dependency chain and each weight row is loaded once per 4
// samples — the kernel-level reason batched inference beats 4 single-sample
// calls. Every output keeps the same p-order accumulation, so results are
// bitwise identical across slab shapes and batch sizes.
func matMulBTRows(a, b, out []float32, k, n, lo, hi int) {
	i := lo
	for ; i+4 <= hi; i += 4 {
		matMulBT4(a[i*k:(i+4)*k], b, out[i*n:(i+4)*n], k, n)
	}
	for ; i < hi; i++ {
		arow := a[i*k : (i+1)*k]
		orow := out[i*n : (i+1)*n]
		for j := 0; j < n; j++ {
			brow := b[j*k : (j+1)*k]
			var s float32
			for p := 0; p < k; p++ {
				s += float32(arow[p] * brow[p])
			}
			orow[j] = s
		}
	}
}

// matMulBT4 computes a 4-row slab of a @ bᵀ: a is (4, k), b is (n, k),
// out is (4, n).
func matMulBT4(a, b, out []float32, k, n int) {
	a0, a1, a2, a3 := a[0:k], a[k:2*k], a[2*k:3*k], a[3*k:4*k]
	j := 0
	for ; j+4 <= n; j += 4 {
		b0, b1, b2, b3 := b[j*k:(j+1)*k], b[(j+1)*k:(j+2)*k], b[(j+2)*k:(j+3)*k], b[(j+3)*k:(j+4)*k]
		var s00, s01, s02, s03 float32
		var s10, s11, s12, s13 float32
		var s20, s21, s22, s23 float32
		var s30, s31, s32, s33 float32
		for p := 0; p < k; p++ {
			av0, av1, av2, av3 := a0[p], a1[p], a2[p], a3[p]
			bv0, bv1, bv2, bv3 := b0[p], b1[p], b2[p], b3[p]
			s00 += float32(av0 * bv0)
			s01 += float32(av0 * bv1)
			s02 += float32(av0 * bv2)
			s03 += float32(av0 * bv3)
			s10 += float32(av1 * bv0)
			s11 += float32(av1 * bv1)
			s12 += float32(av1 * bv2)
			s13 += float32(av1 * bv3)
			s20 += float32(av2 * bv0)
			s21 += float32(av2 * bv1)
			s22 += float32(av2 * bv2)
			s23 += float32(av2 * bv3)
			s30 += float32(av3 * bv0)
			s31 += float32(av3 * bv1)
			s32 += float32(av3 * bv2)
			s33 += float32(av3 * bv3)
		}
		out[j], out[j+1], out[j+2], out[j+3] = s00, s01, s02, s03
		out[n+j], out[n+j+1], out[n+j+2], out[n+j+3] = s10, s11, s12, s13
		out[2*n+j], out[2*n+j+1], out[2*n+j+2], out[2*n+j+3] = s20, s21, s22, s23
		out[3*n+j], out[3*n+j+1], out[3*n+j+2], out[3*n+j+3] = s30, s31, s32, s33
	}
	for ; j < n; j++ {
		brow := b[j*k : (j+1)*k]
		var s0, s1, s2, s3 float32
		for p := 0; p < k; p++ {
			bv := brow[p]
			s0 += float32(a0[p] * bv)
			s1 += float32(a1[p] * bv)
			s2 += float32(a2[p] * bv)
			s3 += float32(a3[p] * bv)
		}
		out[j], out[n+j], out[2*n+j], out[3*n+j] = s0, s1, s2, s3
	}
}

// matMulATAddRows adds aᵀ @ b into dst, for a (k, m), b (k, n) and n > 0,
// one block of output rows at a time: the block is zeroed, formed by
// matMulRows and added to dst.
func matMulATAddRows(a, b, dst []float32, k, m, n int) {
	var buf [atAddBuf]float32
	rows, scratch := atAddBlock(buf[:], n)
	for i := 0; i < m; i += rows {
		blk := scratch[:min(rows, m-i)*n]
		clear(blk)
		matMulRows(a[i:], b, blk, k, n, 1, m, 0, len(blk)/n)
		addRef(dst[i*n:i*n+len(blk)], blk)
	}
}
