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
// d<xi,xj>/dxi = xj and vice versa.
func (d *DotInteraction) Backward(t *Tape, dy *tensor.Tensor) *tensor.Tensor {
	x := t.pop(d).x
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
