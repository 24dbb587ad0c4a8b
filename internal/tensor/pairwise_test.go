package tensor

import (
	"fmt"
	"testing"
)

// checkPairGrad runs Arena.PairwiseUpperGrad on a (b, f, n) input against
// pairGradRef sample by sample, on the heap with dy as it is and on an
// arena with dy read from a window of a wider gradient. x carries specials about one element in
// every `every`; dy holds an exact ±0 about one pair in every zeroEvery,
// so the skip runs, and specials as often as x. NaNs are compared
// canonicalised (sameFloat32Bits' anyNaN): each element adds a product to
// an accumulator, and the Go compiler may take either operand of the add
// (and of the multiply) first, which decides the payload when both are
// NaN. Every other bit, −0 and infinities included, must match.
func checkPairGrad(t *testing.T, r *RNG, b, f, n, zeroEvery, every int) {
	t.Helper()
	ow := f * (f - 1) / 2
	x := FromSlice(elementOperand(r, b*f*n, every, -2, 2), b, f, n)
	dy := FromSlice(elementOperand(r, b*ow, every, -1, 1), b, ow)
	for i := range dy.data {
		if zeroEvery > 0 && r.Intn(zeroEvery) == 0 {
			dy.data[i] = []float32{0, elementSpecials[6]}[r.Intn(2)] // +0 or −0
		}
	}
	got := (*Arena)(nil).PairwiseUpperGrad(x, dy, 0)
	want := New(b, f, n)
	for s := range b {
		pairGradRef(want.data[s*f*n:(s+1)*f*n], x.data[s*f*n:(s+1)*f*n], dy.data[s*ow:(s+1)*ow], f, n)
	}
	sameFloat32Bits(t, fmt.Sprintf("PairwiseUpperGrad (%d, %d, %d)", b, f, n), got.data, want.data, true)
	const col, extra = 3, 5
	wide := Full(9, b, col+ow+extra)
	for s := range b {
		copy(wide.data[s*(col+ow+extra)+col:], dy.data[s*ow:(s+1)*ow])
	}
	var a Arena
	a.New(7) // dirty the arena's memory ahead of dx
	a.Reset()
	sameFloat32Bits(t, fmt.Sprintf("PairwiseUpperGrad at column %d (%d, %d, %d)", col, b, f, n),
		a.PairwiseUpperGrad(x, wide, col).data, want.data, true)
}

// TestPairwiseUpperGradMatchesScalar pins the selected interaction
// backward to the scalar loop at every row length N from 1 to 33 (each
// block-and-tail split, N = 1 and train_dense's N = 16 among them), at one
// to five features, with zero gradients and specials, and at train_dense's
// (64, 17, 16) input.
func TestPairwiseUpperGradMatchesScalar(t *testing.T) {
	r := NewRNG(23)
	for n := 1; n <= 33; n++ {
		for f := 1; f <= 5; f++ {
			checkPairGrad(t, r, 3, f, n, 3, 5)
		}
	}
	sh := trainDensePairwise
	checkPairGrad(t, r, sh.m, sh.k, sh.n, 4, 0)
	checkPairGrad(t, r, sh.m, sh.k, sh.n, 4, 64)
}

// FuzzInteractionBackward draws the batch, the feature count, N from 1 to
// 33 and the densities of zero gradients and specials, and requires the
// selected interaction backward to match the scalar loop (NaNs
// canonicalised, see checkPairGrad).
func FuzzInteractionBackward(f *testing.F) {
	f.Add(uint8(2), uint8(17), uint8(16), uint64(1), uint8(4), uint8(8))
	f.Add(uint8(1), uint8(2), uint8(1), uint64(2), uint8(0), uint8(0))
	f.Add(uint8(5), uint8(9), uint8(33), uint64(3), uint8(1), uint8(2))
	f.Fuzz(func(t *testing.T, b, feats, n uint8, seed uint64, zeroEvery, every uint8) {
		checkPairGrad(t, NewRNG(seed), 1+int(b)%8, 1+int(feats)%24, 1+int(n)%33, int(zeroEvery), int(every))
	})
}

// pairDotLoop is the pairwise-dot oracle: for every sample, every (i, j)
// of the (f, f) grid, diagonal and both triangles, the sum of the products
// float32(x_i[p]·x_j[p]) in ascending p from +0, one plain loop per dot.
func pairDotLoop(x *Tensor) []float32 {
	b, f, n := x.shape[0], x.shape[1], x.shape[2]
	out := make([]float32, b*f*f)
	for s := range b {
		for i := range f {
			xi := x.data[(s*f+i)*n:][:n]
			for j := range f {
				xj := x.data[(s*f+j)*n:][:n]
				var dot float32
				for p := range n {
					dot += float32(xi[p] * xj[p])
				}
				out[(s*f+i)*f+j] = dot
			}
		}
	}
	return out
}

// checkPairDot runs PairwiseUpperIntoCols, into a dirty out and into a
// window of a wider one, pairDotRef and BatchedPairwiseDot on a (b, f, n)
// input against pairDotLoop. x carries
// specials about one element in every `every`; NaNs are compared
// canonicalised, as checkPairGrad compares them, since each dot adds a
// product to an accumulator.
func checkPairDot(t *testing.T, r *RNG, b, f, n, every int) {
	t.Helper()
	x := FromSlice(elementOperand(r, b*f*n, every, -2, 2), b, f, n)
	grid := pairDotLoop(x)
	ow := f * (f - 1) / 2
	upper := make([]float32, 0, b*ow)
	for s := range b {
		for i := range f {
			upper = append(upper, grid[(s*f+i)*f+i+1:(s*f+i+1)*f]...)
		}
	}
	got := Full(7, b, ow)
	PairwiseUpperIntoCols(got, 0, x)
	sameFloat32Bits(t, fmt.Sprintf("PairwiseUpperIntoCols (%d, %d, %d)", b, f, n), got.data, upper, true)
	const col, extra = 2, 3
	w := col + ow + extra
	wide := Full(7, b, w)
	PairwiseUpperIntoCols(wide, col, x)
	window, rest := make([]float32, 0, b*ow), make([]float32, 0, b*(col+extra))
	for s := range b {
		window = append(window, wide.data[s*w+col:s*w+col+ow]...)
		rest = append(append(rest, wide.data[s*w:s*w+col]...), wide.data[s*w+col+ow:(s+1)*w]...)
	}
	sameFloat32Bits(t, fmt.Sprintf("PairwiseUpperIntoCols at column %d (%d, %d, %d)", col, b, f, n), window, upper, true)
	for i, v := range rest {
		if v != 7 {
			t.Fatalf("PairwiseUpperIntoCols (%d, %d, %d) wrote outside its window: element %d is %v", b, f, n, i, v)
		}
	}
	ref := Full(7, b, ow)
	pairDotRef(x.data, ref.data, b, f, n, f*(f-1)/2)
	sameFloat32Bits(t, fmt.Sprintf("pairDotRef (%d, %d, %d)", b, f, n), ref.data, upper, true)
	sameFloat32Bits(t, fmt.Sprintf("BatchedPairwiseDot (%d, %d, %d)", b, f, n), BatchedPairwiseDot(x).data, grid, true)
}

// TestPairwiseUpperMatchesScalar pins the selected interaction forward,
// the scalar routine and BatchedPairwiseDot to a plain loop per dot:
// batches with every ragged tail of 8 samples, feature counts up to DLRM's
// 27 on CriteoLike, and row lengths from 1 to 300, which spans several
// packed chunks of p, with specials about one element in 5; then at F = 40,
// whose pairs fill the vector routine's sums more than once, at F = 60,
// whose chunks of p are shorter than a transpose8 block, and at F = 253
// and 254, the last the vector routine takes and the first it hands to
// the scalar one, at a batch of 9.
func TestPairwiseUpperMatchesScalar(t *testing.T) {
	r := NewRNG(29)
	for _, b := range []int{1, 7, 8, 9, 29, 64} {
		for _, f := range []int{1, 2, 3, 9, 17, 27} {
			for _, n := range []int{1, 5, 8, 16, 128, 300} {
				checkPairDot(t, r, b, f, n, 5)
			}
		}
	}
	checkPairDot(t, r, 11, 40, 37, 9)
	checkPairDot(t, r, 9, 60, 20, 9)
	checkPairDot(t, r, 9, 253, 3, 9)
	checkPairDot(t, r, 9, 254, 3, 9)
}

// FuzzInteractionForward draws the batch (1–64), the feature count (1–40),
// N (1–300) and the density of specials, and requires the selected
// interaction forward, the scalar routine and BatchedPairwiseDot to match
// a plain loop per dot (NaNs canonicalised, see checkPairDot).
func FuzzInteractionForward(f *testing.F) {
	f.Add(uint8(63), uint8(16), uint16(15), uint64(1), uint8(0))
	f.Add(uint8(28), uint8(8), uint16(127), uint64(2), uint8(3))
	f.Add(uint8(8), uint8(39), uint16(299), uint64(3), uint8(1))
	f.Fuzz(func(t *testing.T, b, feats uint8, n uint16, seed uint64, every uint8) {
		checkPairDot(t, NewRNG(seed), 1+int(b)%64, 1+int(feats)%40, 1+int(n)%300, int(every))
	})
}
