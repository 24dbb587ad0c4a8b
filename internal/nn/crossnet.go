package nn

import (
	"fmt"

	"dmt/internal/tensor"
)

// CrossNet is the DCN-v2 cross network (Wang et al. 2021): starting from the
// input x0, each layer computes
//
//	x_{l+1} = x0 ⊙ (W_l x_l + b_l) + x_l
//
// so the l-th layer models degree-(l+1) feature crosses explicitly. It is
// both DCN's main interaction module and, in miniature, the DCN tower module
// (Listing 2 of the paper).
type CrossNet struct {
	Dim    int
	Ws, Bs []*Param
}

// NewCrossNet builds an L-layer CrossNet over dim-dimensional inputs.
func NewCrossNet(r *tensor.RNG, dim, layers int, name string) *CrossNet {
	c := &CrossNet{Dim: dim}
	for l := 0; l < layers; l++ {
		c.Ws = append(c.Ws, NewParam(fmt.Sprintf("%s.W%d", name, l), tensor.XavierUniform(r, dim, dim, dim, dim)))
		c.Bs = append(c.Bs, NewParam(fmt.Sprintf("%s.B%d", name, l), tensor.New(dim)))
	}
	return c
}

// Forward applies all cross layers to x of shape (B, Dim). Each layer's
// u = W x_l + b is a fresh GEMM output; a recording tape keeps (x0, x_l, u)
// and x0 ⊙ u + x_l goes to a new tensor, otherwise it overwrites u. Either
// way each product is rounded before the add.
func (c *CrossNet) Forward(t *Tape, x *tensor.Tensor) *tensor.Tensor {
	mustRank2("CrossNet.Forward", x)
	if x.Dim(1) != c.Dim {
		panic(fmt.Sprintf("nn: CrossNet dim %d, input %v", c.Dim, x.Shape()))
	}
	cur := x
	for l := range c.Ws {
		u := t.New(x.Dim(0), c.Dim)
		tensor.MatMulBTInto(u, cur, c.Ws[l].Value)
		tensor.AddRowVector(u, c.Bs[l].Value)
		next := u
		if t.Record {
			t.push(record{layer: c, x: x, y: cur, z: u})
			next = t.New(x.Dim(0), c.Dim)
		}
		nd, x0, xl := next.Data(), x.Data(), cur.Data()
		for i, v := range u.Data() {
			nd[i] = float32(x0[i]*v) + xl[i]
		}
		cur = next
	}
	return cur
}

// Backward propagates dY through all layers, accumulating parameter
// gradients, and returns dX (which includes the x0 skip contributions).
func (c *CrossNet) Backward(t *Tape, dy *tensor.Tensor) *tensor.Tensor {
	dx0 := tensor.New(dy.Shape()...) // accumulated gradient into x0 across layers
	dcur := dy
	for l := len(c.Ws) - 1; l >= 0; l-- {
		r := t.pop(c)
		x0, xl, ul := r.x, r.y, r.z
		// y = x0 ⊙ u + x_l
		// ∂/∂x0 += dcur ⊙ u ; ∂/∂u = dcur ⊙ x0 ; ∂/∂x_l += dcur
		tensor.AddInPlace(dx0, tensor.Mul(dcur, ul))
		du := tensor.Mul(dcur, x0)
		// u = W x_l + b: dW += duᵀ x_l, db += Σ du, dx_l += du W.
		tensor.AddMatMulAT(c.Ws[l].Grad, du, xl)
		tensor.AddSumRows(c.Bs[l].Grad, du)
		dxl := tensor.MatMul(du, c.Ws[l].Value)
		dcur = tensor.Add(dxl, dcur)
	}
	// dcur is now the gradient flowing into x_0 through the recurrence;
	// dx0 holds the gradient through the elementwise x0 products.
	return tensor.Add(dcur, dx0)
}

// Params returns the cross-layer weights and biases.
func (c *CrossNet) Params() []*Param {
	ps := make([]*Param, 0, 2*len(c.Ws))
	for l := range c.Ws {
		ps = append(ps, c.Ws[l], c.Bs[l])
	}
	return ps
}
