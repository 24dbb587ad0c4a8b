package nn

import (
	"fmt"

	"dmt/internal/tensor"
)

// Linear is a fully connected layer y = x Wᵀ + b with W stored as
// (outFeatures, inFeatures), matching the layout used by the tower-module
// listings in the paper (§4).
type Linear struct {
	In, Out int
	W       *Param // (Out, In)
	B       *Param // (Out)

	params []*Param // Params' list, built by NewLinear
}

// NewLinear creates a Linear layer with Xavier-uniform weights and zero bias.
func NewLinear(r *tensor.RNG, in, out int, name string) *Linear {
	l := &Linear{
		In:  in,
		Out: out,
		W:   NewParam(name+".W", tensor.XavierUniform(r, in, out, out, in)),
		B:   NewParam(name+".B", tensor.New(out)),
	}
	l.params = []*Param{l.W, l.B}
	return l
}

// Forward computes y = x Wᵀ + b for x of shape (batch, In), recording x.
func (l *Linear) Forward(t *Tape, x *tensor.Tensor) *tensor.Tensor {
	mustRank2("Linear.Forward", x)
	if x.Dim(1) != l.In {
		panic(fmt.Sprintf("nn: Linear expects %d input features, got shape %v", l.In, x.Shape()))
	}
	y := t.New(x.Dim(0), l.Out)
	tensor.MatMulBTInto(y, x, l.W.Value)
	t.push(record{layer: l, x: x})
	return tensor.AddRowVector(y, l.B.Value)
}

// Backward consumes dY (batch, Out), accumulates dW and dB, and returns
// dX (batch, In), taken from the tape's arena.
func (l *Linear) Backward(t *Tape, dy *tensor.Tensor) *tensor.Tensor {
	x := t.pop(l).x
	// dW += dYᵀ · X and dB += Σ dY, straight into the gradients.
	tensor.AddMatMulAT(l.W.Grad, dy, x)
	tensor.AddSumRows(l.B.Grad, dy)
	// dX = dY · W.
	return t.MatMul(dy, l.W.Value)
}

// Params returns the layer's parameters, W then B. The list built by
// NewLinear is shared by every call and read-only.
func (l *Linear) Params() []*Param { return l.params }

// MLP is a stack of Linear layers with ReLU between them, and optionally a
// ReLU after the final layer (DLRM's bottom MLP ends in ReLU; the top MLP
// emits a raw logit). Each ReLU runs in place on its Linear's fresh output
// and records that output: y > 0 exactly where the pre-activation is > 0
// (NaN and -0 included), so Backward gates on it. Both directions are one
// tensor.ReLUGate, a vector compare-and-mask where the CPU has AVX2.
type MLP struct {
	Layers    []*Linear
	FinalReLU bool

	params []*Param // Params' list, built by NewMLP
}

// NewMLP builds an MLP mapping in -> sizes[0] -> ... -> sizes[len-1].
func NewMLP(r *tensor.RNG, in int, sizes []int, finalReLU bool, name string) *MLP {
	m := &MLP{FinalReLU: finalReLU}
	prev := in
	for i, s := range sizes {
		l := NewLinear(r, prev, s, fmt.Sprintf("%s.%d", name, i))
		m.Layers = append(m.Layers, l)
		m.params = append(m.params, l.params...)
		prev = s
	}
	return m
}

// OutDim returns the dimensionality of the MLP output.
func (m *MLP) OutDim() int { return m.Layers[len(m.Layers)-1].Out }

// relu reports whether layer i is followed by a ReLU.
func (m *MLP) relu(i int) bool { return i < len(m.Layers)-1 || m.FinalReLU }

// Forward applies the stack.
func (m *MLP) Forward(t *Tape, x *tensor.Tensor) *tensor.Tensor {
	for i, l := range m.Layers {
		x = l.Forward(t, x)
		if m.relu(i) {
			tensor.ReLUGate(x, x)
			t.push(record{layer: m, y: x})
		}
	}
	return x
}

// Backward reverses the stack. The final ReLU gates a copy of dy, which is
// the caller's; every other gate overwrites a Linear's fresh dX. Every
// tensor it makes comes from the tape's arena.
func (m *MLP) Backward(t *Tape, dy *tensor.Tensor) *tensor.Tensor {
	for i := len(m.Layers) - 1; i >= 0; i-- {
		if m.relu(i) {
			y := t.pop(m).y
			if i == len(m.Layers)-1 {
				c := t.New(dy.Shape()...)
				c.CopyFrom(dy)
				dy = c
			}
			tensor.ReLUGate(dy, y)
		}
		dy = m.Layers[i].Backward(t, dy)
	}
	return dy
}

// Params returns all layer parameters, layer by layer. The list built by
// NewMLP is shared by every call and read-only.
func (m *MLP) Params() []*Param { return m.params }
