package nn

import (
	"fmt"

	"dmt/internal/tensor"
)

// DotInteraction is DLRM's pairwise dot-product feature interaction: given
// per-sample feature vectors (B, F, N) it emits the strictly-upper-triangle
// of the (F, F) Gram matrix, shape (B, F*(F-1)/2). The paper's complexity
// discussion (§3.2) — O(|F|²) globally versus O(|F|²/T² + r²|F|²) with tower
// modules — is about exactly this operator.
type DotInteraction struct{}

// OutDim returns the interaction output width for f input features.
func (d *DotInteraction) OutDim(f int) int { return f * (f - 1) / 2 }

// Forward computes the pairwise dots for x of shape (B, F, N), recording x.
func (d *DotInteraction) Forward(t *Tape, x *tensor.Tensor) *tensor.Tensor {
	if x.Rank() != 3 {
		panic(fmt.Sprintf("nn: DotInteraction expects (B,F,N), got %v", x.Shape()))
	}
	t.push(record{layer: d, x: x})
	return pairwiseUpper(t.Arena, x)
}

// pairwiseUpper is Forward's kernel, with the result from the arena a. Every
// dot is its own sum of float32 products in ascending p, and each pass over
// vi runs four of them: four independent add chains keep the loop busy,
// where a single chain waits on every add and its speed swung by ≈ 25% with
// where the linker placed the loop. A group that runs past the last row
// repeats that row and drops the extra sums.
func pairwiseUpper(a *tensor.Arena, x *tensor.Tensor) *tensor.Tensor {
	b, f, n := x.Dim(0), x.Dim(1), x.Dim(2)
	ow := f * (f - 1) / 2
	out := a.New(b, ow)
	xd, od := x.Data(), out.Data()
	for s := 0; s < b; s++ {
		base := xd[s*f*n : (s+1)*f*n]
		orow := od[s*ow : (s+1)*ow]
		k := 0
		for i := 0; i < f; i++ {
			vi := base[i*n : (i+1)*n]
			for j := i + 1; j < f; j += 4 {
				v0 := base[j*n:][:len(vi)]
				v1 := base[min(j+1, f-1)*n:][:len(vi)]
				v2 := base[min(j+2, f-1)*n:][:len(vi)]
				v3 := base[min(j+3, f-1)*n:][:len(vi)]
				var d0, d1, d2, d3 float32
				for p, v := range vi {
					d0 += float32(v * v0[p])
					d1 += float32(v * v1[p])
					d2 += float32(v * v2[p])
					d3 += float32(v * v3[p])
				}
				ds := [4]float32{d0, d1, d2, d3}
				k += copy(orow[k:], ds[:min(4, f-j)])
			}
		}
	}
	return out
}

// Backward maps dY (B, F*(F-1)/2) to dX (B, F, N):
// d<xi,xj>/dxi = xj and vice versa. tensor.PairwiseUpperGrad forms it pair
// by pair in (i, j) order, skipping zero gradients; where the CPU has AVX2
// it runs the rows 8 elements to a vector, a separate multiply and add per
// element in the same order, bitwise the scalar loop (NaN payloads aside:
// the Go compiler picks either operand of the commutative add and multiply
// first).
func (d *DotInteraction) Backward(t *Tape, dy *tensor.Tensor) *tensor.Tensor {
	return tensor.PairwiseUpperGrad(t.pop(d).x, dy)
}

// Params returns nil: the dot interaction is parameter-free (§5.2.2 notes
// this is why tower count affects DCN's parameter count more than DLRM's).
func (d *DotInteraction) Params() []*Param { return nil }
