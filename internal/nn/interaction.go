package nn

import (
	"fmt"

	"dmt/internal/tensor"
)

// DotInteraction is DLRM's pairwise dot-product feature interaction: given
// per-sample feature vectors (B, F, N) it emits the strictly-upper-triangle
// of the (F, F) Gram matrix, shape (B, F*(F-1)/2). The paper's complexity
// discussion (§3.2) — O(|F|²) globally versus O(|F|²/T² + r²|F|²) with tower
// modules — is about exactly this operator. Forward and Backward run
// tensor.PairwiseUpperIntoCols and Arena.PairwiseUpperGrad: each dot is the
// sum of float32 products in ascending element order, and where the CPU has
// AVX2 the forward runs 8 samples as the lanes of one vector, bitwise the
// scalar loop.
type DotInteraction struct{}

// OutDim returns the interaction output width for f input features.
func (d *DotInteraction) OutDim(f int) int { return f * (f - 1) / 2 }

// Forward computes the pairwise dots for x of shape (B, F, N) into a tensor
// from the tape's arena, recording x.
func (d *DotInteraction) Forward(t *Tape, x *tensor.Tensor) *tensor.Tensor {
	if x.Rank() != 3 {
		panic(fmt.Sprintf("nn: DotInteraction expects (B,F,N), got %v", x.Shape()))
	}
	out := t.Arena.New(x.Dim(0), d.OutDim(x.Dim(1)))
	d.ForwardInto(t, out, 0, x)
	return out
}

// ForwardInto is Forward writing the pairs into columns [col,
// col+F(F−1)/2) of out, (B, W), in place: the window the consumer's input
// keeps for them, so they need no copy into it. It records x.
func (d *DotInteraction) ForwardInto(t *Tape, out *tensor.Tensor, col int, x *tensor.Tensor) {
	if x.Rank() != 3 {
		panic(fmt.Sprintf("nn: DotInteraction expects (B,F,N), got %v", x.Shape()))
	}
	t.push(record{layer: d, x: x})
	tensor.PairwiseUpperIntoCols(out, col, x)
}

// Backward maps dY (B, F*(F-1)/2) to dX (B, F, N):
// d<xi,xj>/dxi = xj and vice versa. Arena.PairwiseUpperGrad forms it pair
// by pair in (i, j) order, skipping zero gradients; where the CPU has AVX2
// it runs the rows 8 elements to a vector, a separate multiply and add per
// element in the same order, bitwise the scalar loop (NaN payloads aside:
// the Go compiler picks either operand of the commutative add and multiply
// first).
// dX comes from the tape's arena.
func (d *DotInteraction) Backward(t *Tape, dy *tensor.Tensor) *tensor.Tensor {
	x := t.pop(d).x
	if dy.Rank() != 2 || dy.Dim(1) != d.OutDim(x.Dim(1)) {
		panic(fmt.Sprintf("nn: DotInteraction.Backward: dY %v for input %v", dy.Shape(), x.Shape()))
	}
	return t.PairwiseUpperGrad(x, dy, 0)
}

// BackwardFrom is Backward with dY read in place from columns [col,
// col+F(F−1)/2) of dy, (B, W): ForwardInto's window of the consumer's
// input gradient.
func (d *DotInteraction) BackwardFrom(t *Tape, dy *tensor.Tensor, col int) *tensor.Tensor {
	return t.PairwiseUpperGrad(t.pop(d).x, dy, col)
}

// Params returns nil: the dot interaction is parameter-free (§5.2.2 notes
// this is why tower count affects DCN's parameter count more than DLRM's).
func (d *DotInteraction) Params() []*Param { return nil }
