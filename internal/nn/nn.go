// Package nn provides the neural-network layers of the DMT reproduction:
// linear layers, MLPs, embedding bags with sparse gradients, the DLRM
// pairwise-dot interaction, the DCN-v2 CrossNet, binary cross-entropy loss,
// and Adam/SparseAdam optimizers.
//
// There is no autograd tape. Every layer caches what it needs during Forward
// and exposes an explicit Backward that returns the input gradient and
// accumulates parameter gradients. Each Backward is verified against
// central-difference numerical gradients in the package tests, which is the
// correctness foundation for every accuracy experiment in the paper
// (Tables 2–6).
package nn

import (
	"fmt"

	"dmt/internal/tensor"
)

// Param is a dense trainable parameter: a value tensor plus an accumulated
// gradient of identical shape. Optimizers consume Params.
type Param struct {
	Name  string
	Value *tensor.Tensor
	Grad  *tensor.Tensor
}

// NewParam allocates a parameter holding value, with a zeroed gradient.
func NewParam(name string, value *tensor.Tensor) *Param {
	return &Param{Name: name, Value: value, Grad: tensor.New(value.Shape()...)}
}

// ZeroGrad clears the accumulated gradient.
func (p *Param) ZeroGrad() { p.Grad.Zero() }

// NumElements returns the parameter's element count.
func (p *Param) NumElements() int { return p.Value.Len() }

// Module is the interface shared by all dense layers: it exposes trainable
// parameters so optimizers and gradient synchronization (data-parallel
// AllReduce, intra-tower AllReduce for tower modules) can iterate them.
type Module interface {
	Params() []*Param
}

// ZeroGrads clears gradients of all parameters of the given modules.
func ZeroGrads(ms ...Module) {
	for _, m := range ms {
		for _, p := range m.Params() {
			p.ZeroGrad()
		}
	}
}

// CountParams returns the total number of scalar parameters in the modules.
func CountParams(ms ...Module) int {
	n := 0
	for _, m := range ms {
		for _, p := range m.Params() {
			n += p.NumElements()
		}
	}
	return n
}

// CollectParams flattens the parameter lists of several modules.
func CollectParams(ms ...Module) []*Param {
	var out []*Param
	for _, m := range ms {
		out = append(out, m.Params()...)
	}
	return out
}

func mustRank2(op string, t *tensor.Tensor) {
	if t.Rank() != 2 {
		panic(fmt.Sprintf("nn: %s requires a 2-D tensor, got shape %v", op, t.Shape()))
	}
}
