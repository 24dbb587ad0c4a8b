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
type DotInteraction struct {
	lastX *tensor.Tensor
}

// OutDim returns the interaction output width for f input features.
func (d *DotInteraction) OutDim(f int) int { return f * (f - 1) / 2 }

// Forward computes the pairwise dots for x of shape (B, F, N).
func (d *DotInteraction) Forward(x *tensor.Tensor) *tensor.Tensor {
	if x.Rank() != 3 {
		panic(fmt.Sprintf("nn: DotInteraction expects (B,F,N), got %v", x.Shape()))
	}
	d.lastX = x
	return pairwiseUpper(nil, x)
}

// pairwiseUpper is the interaction kernel shared by the training Forward and
// the stash-free inference path; the result comes from the arena a.
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
			for j := i + 1; j < f; j++ {
				vj := base[j*n : (j+1)*n]
				var dot float32
				for p := 0; p < n; p++ {
					dot += float32(vi[p] * vj[p])
				}
				orow[k] = dot
				k++
			}
		}
	}
	return out
}

// Backward maps dY (B, F*(F-1)/2) to dX (B, F, N):
// d<xi,xj>/dxi = xj and vice versa.
func (d *DotInteraction) Backward(dy *tensor.Tensor) *tensor.Tensor {
	if d.lastX == nil {
		panic("nn: DotInteraction.Backward before Forward")
	}
	x := d.lastX
	b, f, n := x.Dim(0), x.Dim(1), x.Dim(2)
	dx := tensor.New(b, f, n)
	xd, dxd, dyd := x.Data(), dx.Data(), dy.Data()
	ow := d.OutDim(f)
	for s := 0; s < b; s++ {
		base := xd[s*f*n : (s+1)*f*n]
		dbase := dxd[s*f*n : (s+1)*f*n]
		grow := dyd[s*ow : (s+1)*ow]
		k := 0
		for i := 0; i < f; i++ {
			for j := i + 1; j < f; j++ {
				g := grow[k]
				k++
				if g == 0 {
					continue
				}
				vi := base[i*n : (i+1)*n]
				vj := base[j*n : (j+1)*n]
				dvi := dbase[i*n : (i+1)*n]
				dvj := dbase[j*n : (j+1)*n]
				for p := 0; p < n; p++ {
					dvi[p] += float32(g * vj[p])
					dvj[p] += float32(g * vi[p])
				}
			}
		}
	}
	return dx
}

// Params returns nil: the dot interaction is parameter-free (§5.2.2 notes
// this is why tower count affects DCN's parameter count more than DLRM's).
func (d *DotInteraction) Params() []*Param { return nil }
