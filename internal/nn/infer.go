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
// or written here.

// ForwardInference computes y = x Wᵀ + b without caching the input.
func (l *Linear) ForwardInference(x *tensor.Tensor) *tensor.Tensor {
	return l.apply(x)
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
func (m *MLP) ForwardInference(x *tensor.Tensor) *tensor.Tensor {
	for i, l := range m.Layers {
		x = l.ForwardInference(x)
		if i < len(m.Layers)-1 || m.FinalReLU {
			reluInPlace(x)
		}
	}
	return x
}

// ForwardInference computes the pairwise dots without caching the input.
func (d *DotInteraction) ForwardInference(x *tensor.Tensor) *tensor.Tensor {
	if x.Rank() != 3 {
		panic(fmt.Sprintf("nn: DotInteraction expects (B,F,N), got %v", x.Shape()))
	}
	return pairwiseUpper(x)
}

// ForwardInference applies all cross layers without caching per-layer state.
func (c *CrossNet) ForwardInference(x *tensor.Tensor) *tensor.Tensor {
	mustRank2("CrossNet.Forward", x)
	if x.Dim(1) != c.Dim {
		panic(fmt.Sprintf("nn: CrossNet dim %d, input %v", c.Dim, x.Shape()))
	}
	cur := x
	for l := range c.Ws {
		u := tensor.AddRowVector(tensor.MatMulBT(cur, c.Ws[l].Value), c.Bs[l].Value)
		cur = tensor.Add(tensor.Mul(x, u), cur)
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
