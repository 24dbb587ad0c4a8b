package tensor

import (
	"fmt"
	"math"
	"runtime"
	"testing"
)

// gemmKernel pairs a GEMM entry point with its reference: the scalar row
// routine, run over the whole output. Both take the operand shapes that
// dims (m, k, n) give. On a CPU with AVX2 the entry point runs the vector
// routine init selected (see TestAVX2RowRoutinesSelected), so comparing the
// two pins gemm_amd64.s to the scalar contract bit for bit.
type gemmKernel struct {
	name   string
	shapes func(m, k, n int) (x, y []int)
	entry  func(x, y *Tensor) *Tensor
	ref    func(x, y *Tensor) *Tensor
}

var gemmKernels = []gemmKernel{
	{
		name:   "MatMul",
		shapes: func(m, k, n int) ([]int, []int) { return []int{m, k}, []int{k, n} },
		entry:  MatMul,
		ref: func(a, b *Tensor) *Tensor {
			m, k, n := a.shape[0], a.shape[1], b.shape[1]
			out := New(m, n)
			matMulRows(a.data, b.data, out.data, k, n, k, 1, 0, m)
			return out
		},
	},
	{
		name:   "MatMulBT",
		shapes: func(m, k, n int) ([]int, []int) { return []int{m, k}, []int{n, k} },
		entry:  MatMulBT,
		ref: func(a, b *Tensor) *Tensor {
			m, k, n := a.shape[0], a.shape[1], b.shape[0]
			out := New(m, n)
			matMulBTRows(a.data, b.data, out.data, k, n, 0, m)
			return out
		},
	},
	{
		name:   "MatMulAT",
		shapes: func(m, k, n int) ([]int, []int) { return []int{k, m}, []int{k, n} },
		entry:  MatMulAT,
		ref: func(a, b *Tensor) *Tensor {
			k, m, n := a.shape[0], a.shape[1], b.shape[1]
			out := New(m, n)
			matMulRows(a.data, b.data, out.data, k, n, 1, m, 0, m)
			return out
		},
	},
}

// specials are the values a faster routine is likeliest to get wrong:
// infinities, NaN, negative zero, subnormals, and magnitudes past float16's
// largest finite value (65 504).
var specials = []float32{
	float32(math.Inf(1)), float32(math.Inf(-1)), float32(math.NaN()),
	float32(math.Copysign(0, -1)), 1e-40, -3e-42, 7e4, -1e6,
}

// randOperand fills shape with uniform values and an exact zero every
// zeroEvery elements, as a ReLU-gated activation or gradient has them: a
// routine that treated a zero A element as a term to skip, rather than a
// product to add, would part from the others where one meets an infinity.
// With withSpecials it then overwrites 1 + len/1024 random elements with
// values from specials: sparse enough that most dot products stay finite,
// dense enough that a zero meets an infinity somewhere.
func randOperand(r *RNG, zeroEvery int, withSpecials bool, shape ...int) *Tensor {
	t := RandUniform(r, -2, 2, shape...)
	for i := 0; i < t.Len(); i += zeroEvery {
		t.data[i] = 0
	}
	for i := 0; withSpecials && i <= t.Len()/1024; i++ {
		t.data[r.Intn(t.Len())] = specials[r.Intn(len(specials))]
	}
	return t
}

// bits is math.Float32bits with every NaN mapped to one pattern: which
// payload a NaN carries out of an add or multiply depends on the operand
// order, which the row-routine contract does not fix.
func bits(v float32) uint32 {
	if v != v {
		return 0x7fc00000
	}
	return math.Float32bits(v)
}

// sameBits fails the test at the first element whose bits differ.
func sameBits(t *testing.T, what string, got, want *Tensor) {
	t.Helper()
	for i := range want.data {
		if bits(got.data[i]) != bits(want.data[i]) {
			t.Fatalf("%s: element %d is %v, want %v", what, i, got.data[i], want.data[i])
		}
	}
}

// kernelShapes are (m, k, n) shapes that exercise every kernel edge (see
// TestKernelBitwiseMatchesScalar).
var kernelShapes = [][3]int{
	{1, 1, 1},
	{3, 5, 7},
	{4, 8, 4},
	{17, 33, 9},
	{64, 16, 129},
	{100, 40, 72},
	{130, 64, 1},
	{257, 31, 70},
	{8, 300, 24},
	{13, 513, 40},
	{6, 257, 23},
	{35, 256, 31},
	{64, 128, 1},
	{64, 300, 1},
	{19, 260, 13},
	{64, 13, 13},
	{8, 1, 3},
}

// TestKernelBitwiseMatchesScalar pins MatMul, MatMulBT and MatMulAT
// bitwise to their scalar row routines across shapes that exercise every
// kernel edge: rows not a multiple of 4 or 8, columns not a multiple of 8
// or 16, reductions past the 256-step panels, single rows and columns, and
// exact zeros. The n mod 8 edge columns run 8 rows to a vector (dotEdge)
// in all three stride layouts, with zero A elements in some lanes and not
// others, in full and partial 8-row blocks, and at width 1 (train_dense's
// logit layer, and one past a panel). Every shape runs once plain and once
// with specials in both operands.
func TestKernelBitwiseMatchesScalar(t *testing.T) {
	r := NewRNG(42)
	for _, kn := range gemmKernels {
		for _, d := range kernelShapes {
			for _, sp := range []bool{false, true} {
				xs, ys := kn.shapes(d[0], d[1], d[2])
				x, y := randOperand(r, 7, sp, xs...), randOperand(r, 7, sp, ys...)
				got := kn.entry(x, y)
				sameBits(t, fmt.Sprintf("%s %v specials=%v", kn.name, d, sp), got, kn.ref(x, y))
				sameBits(t, fmt.Sprintf("%s %v specials=%v, second run", kn.name, d, sp), kn.entry(x, y), got)
			}
		}
	}
}

// entryPointsAgree requires MatMulBT(a, bᵀ), MatMulAT(aᵀ, b) and
// AddMatMulAT of aᵀ and b into a zero dst to equal MatMul(a, b) bit for
// bit, NaNs compared through bits: one product, one IEEE contract,
// whatever layout the operands arrive in.
func entryPointsAgree(t *testing.T, what string, a, b *Tensor) {
	t.Helper()
	want := MatMul(a, b)
	at := Transpose2D(a)
	sameBits(t, "MatMulBT "+what, MatMulBT(a, Transpose2D(b)), want)
	sameBits(t, "MatMulAT "+what, MatMulAT(at, b), want)
	dst := New(want.shape...)
	AddMatMulAT(dst, at, b)
	sameBits(t, "AddMatMulAT "+what, dst, want)
}

// TestGEMMEntryPointsAgree holds MatMul, MatMulBT, MatMulAT and
// AddMatMulAT to one another on the shapes of
// TestKernelBitwiseMatchesScalar, plain and with specials, and on rows of
// A that are all zero, ±0, against ±Inf and NaN in b: each term counts, so
// those outputs are NaN from every entry point, as IEEE gives them. The
// zero rows sit in a 4-row slab, in the scalar row tail and, with the
// non-finite columns, in the kernel's columns and in its edge columns.
func TestGEMMEntryPointsAgree(t *testing.T) {
	r := NewRNG(11)
	for _, d := range kernelShapes {
		for _, sp := range []bool{false, true} {
			a, b := randOperand(r, 7, sp, d[0], d[1]), randOperand(r, 7, sp, d[1], d[2])
			entryPointsAgree(t, fmt.Sprintf("%v specials=%v", d, sp), a, b)
		}
	}

	const m, k, n = 9, 20, 11
	a, b := randOperand(r, 7, false, m, k), randOperand(r, 7, false, k, n)
	for _, row := range []int{2, 8} {
		clear(a.data[row*k : (row+1)*k])
	}
	a.data[2*k+6] = float32(math.Copysign(0, -1))
	nonFinite := make([]float32, n) // column j's non-finite b element, or 0
	nonFinite[0], nonFinite[9], nonFinite[10] = float32(math.Inf(1)), float32(math.Inf(-1)), float32(math.NaN())
	for j, v := range nonFinite {
		if v != 0 {
			b.data[(3+j)*n+j] = v
		}
	}
	entryPointsAgree(t, "zero rows of A against ±Inf and NaN", a, b)
	got := MatMul(a, b)
	for _, row := range []int{2, 8} {
		for j, v := range nonFinite {
			if g := got.data[row*n+j]; (g != g) != (v != 0) {
				t.Errorf("zero row %d, column %d: got %v; want NaN exactly where b holds ±Inf or NaN", row, j, g)
			}
		}
	}
}

// TestAddMatMulATMatchesUnfused pins the in-place weight-gradient
// accumulation to what it replaced, AddInPlace(dst, MatMulAT(a, b)), bit
// for bit, on a dst that already holds values (specials and -0 included),
// across shapes with rows not a multiple of 4, more rows than one stack
// block holds, and rows wider than the stack buffer. The scalar routine is
// held to it too. AddSumRows is held to AddInPlace(dst, SumRows(a)) the
// same way, past its 512-column buffer.
func TestAddMatMulATMatchesUnfused(t *testing.T) {
	r := NewRNG(9)
	for _, d := range [][3]int{{1, 1, 1}, {3, 5, 7}, {17, 33, 9}, {130, 64, 40}, {6, 12, 1500}, {9, 3, 1025}} {
		m, k, n := d[0], d[1], d[2]
		for _, sp := range []bool{false, true} {
			name := fmt.Sprintf("%v specials=%v", d, sp)
			a, b := randOperand(r, 7, sp, k, m), randOperand(r, 7, sp, k, n)
			dst := randOperand(r, 5, sp, m, n)
			dst.data[0] = float32(math.Copysign(0, -1))
			want := dst.Clone()
			AddInPlace(want, MatMulAT(a, b))
			got := dst.Clone()
			AddMatMulAT(got, a, b)
			sameBits(t, "AddMatMulAT "+name, got, want)
			got = dst.Clone()
			matMulATAddRows(a.data, b.data, got.data, k, m, n)
			sameBits(t, "matMulATAddRows "+name, got, want)

			bias := randOperand(r, 5, sp, n)
			bias.data[0] = float32(math.Copysign(0, -1))
			want = bias.Clone()
			AddInPlace(want, SumRows(b))
			got = bias.Clone()
			AddSumRows(got, b)
			sameBits(t, "AddSumRows "+name, got, want)
		}
	}
}

// sink keeps the tensors the allocation pins make on the heap, as a
// caller's would be.
var sink *Tensor

// allocsPerCall is testing.AllocsPerRun without its switch to GOMAXPROCS(1):
// the mallocs of runs calls of f, divided by runs and rounded down, at the
// procs the caller set. A collection and a warm-up call come first, so that
// neither starting the mark workers of procs added since the last
// collection nor f's first call counts.
func allocsPerCall(runs int, f func()) uint64 {
	runtime.GC()
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range runs {
		f()
	}
	runtime.ReadMemStats(&after)
	return (after.Mallocs - before.Mallocs) / uint64(runs)
}

// TestGEMMAllocatesOnlyItsOutput pins every entry point, at 4 procs and
// train_dense's dominant shapes, to the allocations of one New of its
// output, and MatMulBTInto, AddMatMulAT and AddSumRows to none: a multiply
// runs on the calling goroutine and allocates nothing of its own, however
// many procs there are.
func TestGEMMAllocatesOnlyItsOutput(t *testing.T) {
	prev := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(prev)
	r := NewRNG(8)
	for _, kn := range gemmKernels {
		sh := trainDenseShapes[kn.name]
		xs, ys := kn.shapes(sh.m, sh.k, sh.n)
		x, y := RandUniform(r, -1, 1, xs...), RandUniform(r, -1, 1, ys...)
		want := allocsPerCall(20, func() { sink = New(sh.m, sh.n) })
		if got := allocsPerCall(20, func() { sink = kn.entry(x, y) }); got != want {
			t.Errorf("%s %v allocates %v per call; New of its output allocates %v", kn.name, sh, got, want)
		}
		if kn.name == "MatMulBT" {
			out := New(sh.m, sh.n)
			if got := allocsPerCall(20, func() { MatMulBTInto(out, x, y) }); got != 0 {
				t.Errorf("MatMulBTInto %v allocates %v per call", sh, got)
			}
		}
		if kn.name == "MatMulAT" {
			dW, dB := New(sh.m, sh.n), New(sh.m)
			if got := allocsPerCall(20, func() { AddMatMulAT(dW, x, y); AddSumRows(dB, x) }); got != 0 {
				t.Errorf("AddMatMulAT and AddSumRows %v allocate %v per call", sh, got)
			}
		}
	}
	sh := trainDensePairwise
	x := RandUniform(r, -1, 1, sh.m, sh.k, sh.n)
	want := allocsPerCall(20, func() { sink = New(sh.m, sh.k, sh.k) })
	if got := allocsPerCall(20, func() { sink = BatchedPairwiseDot(x) }); got != want {
		t.Errorf("BatchedPairwiseDot %v allocates %v per call; New of its output allocates %v", sh, got, want)
	}
}

// TestMatMulBTAllocs pins MatMulBT's packed bᵀ panel to the stack: it
// allocates no more per call than MatMul at the same shape.
func TestMatMulBTAllocs(t *testing.T) {
	r := NewRNG(5)
	a := RandUniform(r, -1, 1, 64, 300)
	b, bt := RandUniform(r, -1, 1, 300, 40), RandUniform(r, -1, 1, 40, 300)
	mm := testing.AllocsPerRun(20, func() { MatMul(a, b) })
	if n := testing.AllocsPerRun(20, func() { MatMulBT(a, bt) }); n > mm {
		t.Fatalf("MatMulBT allocates %v per call, MatMul %v", n, mm)
	}
}

// FuzzGEMMKernels draws random shapes, up to 256 per side and 600 deep,
// with exact zeros and specials in both operands, and requires every entry
// point to match its scalar row routine bit for bit, AddMatMulAT to match
// adding that routine's output, and the entry points to agree with one
// another (entryPointsAgree) on one more pair of operands.
func FuzzGEMMKernels(f *testing.F) {
	f.Add(uint16(257), uint16(31), uint16(70), uint64(1), uint8(7))
	f.Add(uint16(64), uint16(16), uint16(129), uint64(2), uint8(1))
	f.Add(uint16(1), uint16(1), uint16(1), uint64(3), uint8(0))
	f.Add(uint16(13), uint16(520), uint16(45), uint64(4), uint8(5))
	f.Fuzz(func(t *testing.T, m, k, n uint16, seed uint64, zeroEvery uint8) {
		dm, dk, dn := 1+int(m)%256, 1+int(k)%600, 1+int(n)%256
		r := NewRNG(seed)
		for _, kn := range gemmKernels {
			xs, ys := kn.shapes(dm, dk, dn)
			x, y := randOperand(r, 1+int(zeroEvery), true, xs...), randOperand(r, 1+int(zeroEvery), true, ys...)
			sameBits(t, fmt.Sprintf("%s (%d, %d, %d)", kn.name, dm, dk, dn), kn.entry(x, y), kn.ref(x, y))
			if kn.name == "MatMulAT" {
				dst := randOperand(r, 1+int(zeroEvery), true, dm, dn)
				want := dst.Clone()
				AddInPlace(want, kn.ref(x, y))
				AddMatMulAT(dst, x, y)
				sameBits(t, fmt.Sprintf("AddMatMulAT (%d, %d, %d)", dm, dk, dn), dst, want)
			}
		}
		a, b := randOperand(r, 1+int(zeroEvery), true, dm, dk), randOperand(r, 1+int(zeroEvery), true, dk, dn)
		entryPointsAgree(t, fmt.Sprintf("(%d, %d, %d)", dm, dk, dn), a, b)
	})
}
