package tensor

import (
	"fmt"
	"math"
	"testing"
)

// elementSpecials are the values the elementwise kernels must carry through
// exactly as the scalar references do: infinities, NaNs with distinct
// payloads and signs (quiet and signalling), negative zero, subnormals, and
// magnitudes past float16's largest finite value (65 504).
var elementSpecials = []float32{
	float32(math.Inf(1)), float32(math.Inf(-1)),
	math.Float32frombits(0x7fc00001), math.Float32frombits(0xffc12345),
	math.Float32frombits(0x7f800001), math.Float32frombits(0xff9abcde),
	float32(math.Copysign(0, -1)), 1e-40, -3e-42, 7e4, -1e6,
}

// elementOperand returns n uniform values in [lo, hi) with roughly one
// element in every `every` overwritten by a special (none when every is 0).
func elementOperand(r *RNG, n, every int, lo, hi float64) []float32 {
	d := RandUniform(r, lo, hi, n).data
	for i := 0; every > 0 && i < n; i++ {
		if r.Intn(every) == 0 {
			d[i] = elementSpecials[r.Intn(len(elementSpecials))]
		}
	}
	return d
}

// sameFloat32Bits fails the test at the first element whose bits differ.
// AddInPlace, ScaleInPlace and ReLUGate must reproduce NaN payloads too, so
// their results are compared as they are. With anyNaN every NaN matches
// every NaN (the GEMM tests' bits): that is for Adam, whose moment updates
// add two products that are both NaN when the moment and the gradient are,
// and the Go compiler picks either as the add's first operand (its choice
// differs under -race), so which payload the reference keeps is not
// defined; PairwiseUpperGrad's accumulation is the same case.
func sameFloat32Bits(t *testing.T, what string, got, want []float32, anyNaN bool) {
	t.Helper()
	key := math.Float32bits
	if anyNaN {
		key = bits
	}
	for i := range want {
		if key(got[i]) != key(want[i]) {
			t.Fatalf("%s: element %d is %#08x, the scalar reference gives %#08x",
				what, i, math.Float32bits(got[i]), math.Float32bits(want[i]))
		}
	}
}

// checkElementwise runs AddInPlace, ScaleInPlace, ReLUGate and AdamUpdate
// at length n against addRef, scaleRef, gateRef and adamRef, and the bias
// adds at width n (checkBiasAdds), with specials in every operand, and
// compares every output by Float32bits (Adam's and the bias adds' NaNs
// canonicalised). ReLUGate runs as the backward gate (d, y) and as the
// forward ReLU (y, y). Adam runs adamSteps steps of bias correction, each
// on a fresh gradient.
func checkElementwise(t *testing.T, r *RNG, n, every, adamSteps int, s AdamStep) {
	t.Helper()
	d, src := elementOperand(r, n, every, -2, 2), elementOperand(r, n, every, -2, 2)
	got, want := FromSlice(append([]float32(nil), d...), n), append([]float32(nil), d...)
	AddInPlace(got, FromSlice(src, n))
	addRef(want, src)
	sameFloat32Bits(t, fmt.Sprintf("AddInPlace n=%d", n), got.data, want, false)

	checkBiasAdds(t, r, n, every)

	got, want = FromSlice(append([]float32(nil), d...), n), append([]float32(nil), d...)
	ReLUGate(got, FromSlice(src, n))
	gateRef(want, src)
	sameFloat32Bits(t, fmt.Sprintf("ReLUGate n=%d", n), got.data, want, false)
	got, want = FromSlice(append([]float32(nil), src...), n), append([]float32(nil), src...)
	ReLUGate(got, got)
	gateRef(want, want)
	sameFloat32Bits(t, fmt.Sprintf("ReLUGate in place n=%d", n), got.data, want, false)

	for _, f := range []float32{0.125, -1.5, float32(math.Inf(1)), elementSpecials[3]} {
		got, want := FromSlice(append([]float32(nil), d...), n), append([]float32(nil), d...)
		ScaleInPlace(got, f)
		scaleRef(want, f)
		sameFloat32Bits(t, fmt.Sprintf("ScaleInPlace n=%d f=%v", n, f), got.data, want, false)
	}

	w := elementOperand(r, n, every, -1, 1)
	m := elementOperand(r, n, every, -0.01, 0.01)
	v := elementOperand(r, n, every, 0, 1e-4)
	wr, mr, vr := append([]float32(nil), w...), append([]float32(nil), m...), append([]float32(nil), v...)
	for step := 1; step <= adamSteps; step++ {
		s.BC1 = 1 - math.Pow(float64(s.Beta1), float64(step))
		s.BC2 = 1 - math.Pow(float64(s.Beta2), float64(step))
		g := elementOperand(r, n, every, -0.1, 0.1)
		AdamUpdate(s, w, g, m, v)
		adamRef(s, wr, g, mr, vr)
		what := fmt.Sprintf("AdamUpdate n=%d step %d", n, step)
		sameFloat32Bits(t, what+" m", m, mr, true)
		sameFloat32Bits(t, what+" v", v, vr, true)
		sameFloat32Bits(t, what+" w", w, wr, true)
	}
}

// checkBiasAdds runs AddRowVector and AddSumRows on a (3, w) operand with
// specials against their scalar loops, comparing by Float32bits with NaNs
// canonicalised: in `d += s` written out, as here, the Go compiler may take
// either operand first (addRef's loop happens to compile with d first, and
// AddInPlace is held to its payloads above).
func checkBiasAdds(t *testing.T, r *RNG, w, every int) {
	t.Helper()
	const h = 3
	a, v := elementOperand(r, h*w, every, -2, 2), elementOperand(r, w, every, -2, 2)
	got, want := FromSlice(append([]float32(nil), a...), h, w), append([]float32(nil), a...)
	AddRowVector(got, FromSlice(v, w))
	for row := range h {
		for c, bv := range v {
			want[row*w+c] += bv
		}
	}
	sameFloat32Bits(t, fmt.Sprintf("AddRowVector (%d, %d)", h, w), got.data, want, true)

	gotSum, wantSum := FromSlice(append([]float32(nil), v...), w), append([]float32(nil), v...)
	AddSumRows(gotSum, FromSlice(a, h, w))
	for c := range w {
		var acc float32
		for row := range h {
			acc += a[row*w+c]
		}
		wantSum[c] += acc
	}
	sameFloat32Bits(t, fmt.Sprintf("AddSumRows (%d, %d)", h, w), gotSum.data, wantSum, true)
}

var defaultAdam = AdamStep{LR: 1e-3, Beta1: 0.9, Beta2: 0.999, Eps: 1e-8}

// TestElementwiseKernelsMatchReferences pins the elementwise routines the
// CPU selected (the AVX2 ones where it has AVX2) to the scalar references by
// bits at every length 0–67, covering each block-and-tail split, and at
// 65 536, with specials in both operands, and Adam over 50 steps.
func TestElementwiseKernelsMatchReferences(t *testing.T) {
	r := NewRNG(17)
	for n := 0; n <= 67; n++ {
		checkElementwise(t, r, n, 4, 50, defaultAdam)
	}
	checkElementwise(t, r, 1<<16, 64, 50, defaultAdam)
}

// FuzzElementwiseKernels draws lengths up to 4 096, the density of
// specials, and Adam's hyperparameters and step count, and requires the
// selected elementwise routines (ReLUGate's both ways) and the bias adds to
// match the scalar references bit for bit.
func FuzzElementwiseKernels(f *testing.F) {
	f.Add(uint16(67), uint64(1), uint8(4), float32(1e-3), uint16(1))
	f.Add(uint16(8), uint64(2), uint8(0), float32(0.5), uint16(1000))
	f.Add(uint16(4095), uint64(3), uint8(1), float32(-2), uint16(7))
	f.Fuzz(func(t *testing.T, n uint16, seed uint64, every uint8, lr float32, steps uint16) {
		r := NewRNG(seed)
		s := AdamStep{LR: lr, Beta1: float32(r.Float64()), Beta2: float32(r.Float64()), Eps: float32(r.Float64() * 1e-6)}
		checkElementwise(t, r, int(n)%4097, int(every), 1+int(steps)%3, s)
	})
}
