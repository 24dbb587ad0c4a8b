package tensor

import (
	"fmt"
	"testing"
)

// checkPairGrad runs PairwiseUpperGrad on a (b, f, n) input against
// pairGradRef sample by sample. x carries specials about one element in
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
	got := PairwiseUpperGrad(x, dy)
	want := New(b, f, n)
	for s := range b {
		pairGradRef(want.data[s*f*n:(s+1)*f*n], x.data[s*f*n:(s+1)*f*n], dy.data[s*ow:(s+1)*ow], f, n)
	}
	sameFloat32Bits(t, fmt.Sprintf("PairwiseUpperGrad (%d, %d, %d)", b, f, n), got.data, want.data, true)
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

// checkPairDot runs PairwiseUpperInto, into a dirty out, and
// BatchedPairwiseDot on a (b, f, n) input against pairDotRef. x carries
// specials about one element in every `every`; NaNs are compared
// canonicalised, as checkPairGrad compares them, since each dot adds a
// product to an accumulator.
func checkPairDot(t *testing.T, r *RNG, b, f, n, every int) {
	t.Helper()
	x := FromSlice(elementOperand(r, b*f*n, every, -2, 2), b, f, n)
	ow := f * (f - 1) / 2
	got, want := Full(7, b, ow), New(b, ow)
	PairwiseUpperInto(got, x)
	pairDotRef(x.data, want.data, b, f, n, false)
	sameFloat32Bits(t, fmt.Sprintf("PairwiseUpperInto (%d, %d, %d)", b, f, n), got.data, want.data, true)
	want = New(b, f, f)
	pairDotRef(x.data, want.data, b, f, n, true)
	sameFloat32Bits(t, fmt.Sprintf("BatchedPairwiseDot (%d, %d, %d)", b, f, n), BatchedPairwiseDot(x).data, want.data, true)
}

// TestPairwiseUpperMatchesScalar pins the selected interaction forward,
// and BatchedPairwiseDot, to the scalar loop: batches with every ragged
// tail of 8 samples, feature counts up to DLRM's 27 on CriteoLike, and row lengths
// from 1 to 300, which spans several packed chunks of p, with specials
// about one element in 5; then at F = 40, whose pairs fill the vector
// routine's sums more than once, at F = 60, whose chunks of p are shorter
// than a transpose8 block, and at F = 300, which runs the reference.
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
	checkPairDot(t, r, 2, 300, 3, 9)
}

// FuzzInteractionForward draws the batch (1–64), the feature count (1–40),
// N (1–300) and the density of specials, and requires the selected
// interaction forward and BatchedPairwiseDot to match the scalar loop
// (NaNs canonicalised, see checkPairDot).
func FuzzInteractionForward(f *testing.F) {
	f.Add(uint8(63), uint8(16), uint16(15), uint64(1), uint8(0))
	f.Add(uint8(28), uint8(8), uint16(127), uint64(2), uint8(3))
	f.Add(uint8(8), uint8(39), uint16(299), uint64(3), uint8(1))
	f.Fuzz(func(t *testing.T, b, feats uint8, n uint16, seed uint64, every uint8) {
		checkPairDot(t, NewRNG(seed), 1+int(b)%64, 1+int(feats)%40, 1+int(n)%300, int(every))
	})
}
