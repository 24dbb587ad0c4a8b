package nn

import (
	"fmt"

	"dmt/internal/tensor"
)

// Inference-only forward passes. Each ForwardInference computes exactly the
// same function as the layer's Forward but stashes nothing, so a single
// module instance can serve many concurrent read-only Predict calls
// (package serve) while remaining usable for training from its owning
// goroutine. Training state (cached activations, gradients) is never read
// or written here. Every result and intermediate comes from the arena a
// (the heap when a is nil), so a caller that resets one arena per pass
// allocates nothing once the arena has grown.

// ForwardInference computes y = x Wᵀ + b without caching the input.
func (l *Linear) ForwardInference(a *tensor.Arena, x *tensor.Tensor) *tensor.Tensor {
	mustRank2("Linear.Forward", x)
	if x.Dim(1) != l.In {
		panic(fmt.Sprintf("nn: Linear expects %d input features, got shape %v", l.In, x.Shape()))
	}
	y := a.New(x.Dim(0), l.Out)
	tensor.MatMulBTInto(y, x, l.W.Value)
	return tensor.AddRowVector(y, l.B.Value)
}

// reluInPlace is max(x, 0) without an activation mask, overwriting x:
// every element that is not > 0 (NaN and -0 included) becomes +0.
func reluInPlace(x *tensor.Tensor) {
	xd := x.Data()
	for i, v := range xd {
		if !(v > 0) {
			xd[i] = 0
		}
	}
}

// ForwardInference applies the MLP stack without caching activations. The
// ReLU runs in place on each Linear's fresh output.
func (m *MLP) ForwardInference(a *tensor.Arena, x *tensor.Tensor) *tensor.Tensor {
	for i, l := range m.Layers {
		x = l.ForwardInference(a, x)
		if i < len(m.Layers)-1 || m.FinalReLU {
			reluInPlace(x)
		}
	}
	return x
}

// ForwardInference computes the pairwise dots without caching the input.
func (d *DotInteraction) ForwardInference(a *tensor.Arena, x *tensor.Tensor) *tensor.Tensor {
	if x.Rank() != 3 {
		panic(fmt.Sprintf("nn: DotInteraction expects (B,F,N), got %v", x.Shape()))
	}
	return pairwiseUpper(a, x)
}

// ForwardInference applies all cross layers without caching per-layer
// state. Each layer's x0 ⊙ u + x_l overwrites u, its fresh GEMM output,
// with the products rounded before the add exactly as Forward's Mul then
// Add round them.
func (c *CrossNet) ForwardInference(a *tensor.Arena, x *tensor.Tensor) *tensor.Tensor {
	mustRank2("CrossNet.Forward", x)
	if x.Dim(1) != c.Dim {
		panic(fmt.Sprintf("nn: CrossNet dim %d, input %v", c.Dim, x.Shape()))
	}
	cur := x
	for l := range c.Ws {
		u := a.New(x.Dim(0), c.Dim)
		tensor.MatMulBTInto(u, cur, c.Ws[l].Value)
		tensor.AddRowVector(u, c.Bs[l].Value)
		ud, x0, xl := u.Data(), x.Data(), cur.Data()
		for i, v := range ud {
			ud[i] = float32(x0[i]*v) + xl[i]
		}
		cur = u
	}
	return cur
}

// PoolBagInto pools the table rows of one bag into dst (length Dim, assumed
// zeroed) without touching the cached training inputs. An empty bag leaves
// dst at zero, matching Forward.
func (e *EmbeddingBag) PoolBagInto(dst []float32, bag []int32) {
	if len(bag) == 0 {
		return
	}
	for _, idx := range bag {
		if int(idx) < 0 || int(idx) >= e.Rows {
			panic(fmt.Sprintf("nn: embedding %q index %d out of range [0,%d)", e.Name, idx, e.Rows))
		}
		src := e.Table.Row(int(idx))
		for d := 0; d < e.Dim; d++ {
			dst[d] += src[d]
		}
	}
	if e.Mode == PoolMean {
		inv := float32(1) / float32(len(bag))
		for d := 0; d < e.Dim; d++ {
			dst[d] *= inv
		}
	}
}

// ForwardInference pools every bag read-only, returning (numBags, Dim).
func (e *EmbeddingBag) ForwardInference(indices, offsets []int32) *tensor.Tensor {
	nbags := len(offsets)
	out := tensor.New(nbags, e.Dim)
	for b := 0; b < nbags; b++ {
		lo, hi := bagBounds(indices, offsets, b)
		e.PoolBagInto(out.Row(b), indices[lo:hi])
	}
	return out
}
