package tensor

import (
	"math"
	"runtime"
	"testing"
)

// tiledKernel pairs a tiled entry point with its reference: the row routine
// it tiles, run over the whole output on the calling goroutine. Both take
// the operand shapes that dims (m, k, n) give; BatchedPairwiseDot reads them
// as (B, F, N) and ignores its second operand.
type tiledKernel struct {
	name   string
	shapes func(m, k, n int) (x, y []int)
	tiled  func(x, y *Tensor) *Tensor
	ref    func(x, y *Tensor) *Tensor
}

var tiledKernels = []tiledKernel{
	{
		name:   "MatMul",
		shapes: func(m, k, n int) ([]int, []int) { return []int{m, k}, []int{k, n} },
		tiled:  MatMul,
		ref: func(a, b *Tensor) *Tensor {
			m, k, n := a.shape[0], a.shape[1], b.shape[1]
			out := New(m, n)
			matMulRows(a.data, b.data, out.data, k, n, 0, m)
			return out
		},
	},
	{
		name:   "MatMulBT",
		shapes: func(m, k, n int) ([]int, []int) { return []int{m, k}, []int{n, k} },
		tiled:  MatMulBT,
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
		tiled:  MatMulAT,
		ref: func(a, b *Tensor) *Tensor {
			k, m, n := a.shape[0], a.shape[1], b.shape[1]
			out := New(m, n)
			matMulATRows(a.data, b.data, out.data, k, m, n, 0, m)
			return out
		},
	},
	{
		name:   "BatchedPairwiseDot",
		shapes: func(m, k, n int) ([]int, []int) { return []int{m, k, n}, []int{1} },
		tiled:  func(x, _ *Tensor) *Tensor { return BatchedPairwiseDot(x) },
		ref: func(x, _ *Tensor) *Tensor {
			b, f, n := x.shape[0], x.shape[1], x.shape[2]
			out := New(b, f, f)
			pairwiseDotSamples(x.data, out.data, f, n, 0, b)
			return out
		},
	},
}

// atLeastFourProcs raises GOMAXPROCS to 4 for the rest of the test, so
// runTiles fans out even under `go test -cpu 1` and the tiled path is not
// just the reference compared with itself.
func atLeastFourProcs(tb testing.TB) {
	if prev := runtime.GOMAXPROCS(0); prev < 4 {
		runtime.GOMAXPROCS(4)
		tb.Cleanup(func() { runtime.GOMAXPROCS(prev) })
	}
}

// randOperand fills shape with uniform values and an exact zero every
// zeroEvery elements, so the skip-zero branch of the MatMul routines runs.
func randOperand(r *RNG, zeroEvery int, shape ...int) *Tensor {
	t := RandUniform(r, -2, 2, shape...)
	for i := 0; i < t.Len(); i += zeroEvery {
		t.data[i] = 0
	}
	return t
}

// TestParallelKernelBitwiseMatchesSerial pins MatMul, MatMulBT and MatMulAT,
// fanned out over tiles, bitwise to their row routines run serially.
func TestParallelKernelBitwiseMatchesSerial(t *testing.T) {
	checkTiledMatchesRowRoutine(t, tiledKernels[:3])
}

// TestParallelPairwiseDotBitwiseMatchesSerial pins BatchedPairwiseDot,
// fanned out over tiles, bitwise to pairwiseDotSamples run serially.
func TestParallelPairwiseDotBitwiseMatchesSerial(t *testing.T) {
	checkTiledMatchesRowRoutine(t, tiledKernels[3:])
}

// checkTiledMatchesRowRoutine compares each kernel's tiled entry point with
// its row routine across shapes that exercise every tiling edge: rows not a
// multiple of the tile height, partial 4-row slabs in MatMulBT, single rows
// and columns, exact zeros, and shapes with more tiles than workers.
func checkTiledMatchesRowRoutine(t *testing.T, kernels []tiledKernel) {
	atLeastFourProcs(t)
	r := NewRNG(42)
	shapes := [][3]int{
		{1, 1, 1},
		{3, 5, 7},
		{4, 8, 4},
		{17, 33, 9},
		{64, 16, 129},
		{100, 40, 72},
		{130, 64, 1},
		{257, 31, 70},
	}
	for _, kn := range kernels {
		for _, d := range shapes {
			xs, ys := kn.shapes(d[0], d[1], d[2])
			x, y := randOperand(r, 7, xs...), randOperand(r, 7, ys...)
			want := kn.ref(x, y)
			got := kn.tiled(x, y)
			if !got.Equal(want) {
				t.Fatalf("%s %v: tiled result diverged from the row routine (max abs diff %g)",
					kn.name, d, got.MaxAbsDiff(want))
			}
			if again := kn.tiled(x, y); !again.Equal(got) {
				t.Fatalf("%s %v: tiled result not deterministic across runs", kn.name, d)
			}
		}
	}
}

// FuzzTiledKernels draws random shapes, up to 256 per side (48 features for
// BatchedPairwiseDot) with exact zeros, and requires every tiled entry point
// to match its row routine bit for bit.
func FuzzTiledKernels(f *testing.F) {
	atLeastFourProcs(f)
	f.Add(uint16(257), uint16(31), uint16(70), uint64(1), uint8(7))
	f.Add(uint16(64), uint16(16), uint16(129), uint64(2), uint8(1))
	f.Add(uint16(1), uint16(1), uint16(1), uint64(3), uint8(0))
	f.Fuzz(func(t *testing.T, m, k, n uint16, seed uint64, zeroEvery uint8) {
		dm, dk, dn := 1+int(m)%256, 1+int(k)%256, 1+int(n)%256
		r := NewRNG(seed)
		for _, kn := range tiledKernels {
			kk := dk
			if kn.name == "BatchedPairwiseDot" {
				kk = 1 + int(k)%48
			}
			xs, ys := kn.shapes(dm, kk, dn)
			x, y := randOperand(r, 1+int(zeroEvery), xs...), randOperand(r, 1+int(zeroEvery), ys...)
			want, got := kn.ref(x, y), kn.tiled(x, y)
			for i := range want.data {
				if math.Float32bits(got.data[i]) != math.Float32bits(want.data[i]) {
					t.Fatalf("%s (%d, %d, %d): element %d is %v, row routine gives %v",
						kn.name, dm, kk, dn, i, got.data[i], want.data[i])
				}
			}
		}
	})
}
