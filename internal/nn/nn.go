// Package nn provides the neural-network layers of the DMT reproduction:
// linear layers, MLPs, embedding bags with sparse gradients, the DLRM
// pairwise-dot interaction, the DCN-v2 CrossNet, binary cross-entropy loss,
// and Adam/SparseAdam optimizers.
//
// A layer holds only its parameters. Everything one pass computes lives on
// a Tape the caller owns: every Forward(t, x) takes its tensors from the
// tape's arena and, when the tape records, pushes what its Backward needs;
// every Backward(t, dy) pops that record, returns the input gradient and
// accumulates parameter gradients. A tape is a stack: a pass's Backwards
// run in the reverse order of its Forwards, and a Backward whose layer did
// not push the last record panics with the layer's name. A tape that does
// not record is the inference path, so one layer serves concurrent
// read-only passes, each on its own tape, while a training step records on
// another. Each Backward is verified against central-difference numerical
// gradients in the package tests, which is the correctness foundation for
// every accuracy experiment in the paper (Tables 2–6).
package nn

import (
	"fmt"
	"strings"

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

// Tape is one pass's memory: the arena its tensors come from (a nil Arena
// means the heap) and, when Record is set, the stack of what each layer's
// Backward needs. The zero Tape takes from the heap and records nothing. A
// Tape is not safe for concurrent use.
type Tape struct {
	*tensor.Arena // New, Reshape and Concat take from it
	Record        bool
	recs          []record
}

// record is what one Forward left for its Backward: the layer that pushed
// it and the tensors or bag lists it kept.
type record struct {
	layer     any
	x, y, z   *tensor.Tensor
	ids, offs []int32
}

// Reset starts a new pass: it drops every record and rewinds the arena, so
// every tensor the last pass took from it may be overwritten.
func (t *Tape) Reset() {
	clear(t.recs)
	t.recs = t.recs[:0]
	t.Arena.Reset()
}

// Len returns the number of records the tape holds.
func (t *Tape) Len() int { return len(t.recs) }

// push records r when the tape records.
func (t *Tape) push(r record) {
	if t.Record {
		t.recs = append(t.recs, r)
	}
}

// pop removes and returns the last record, which layer must have pushed.
func (t *Tape) pop(layer any) record {
	if len(t.recs) == 0 {
		panic(fmt.Sprintf("nn: %s: Backward with no matching Forward on the tape", layerName(layer)))
	}
	r := t.recs[len(t.recs)-1]
	if r.layer != layer {
		panic(fmt.Sprintf("nn: %s: Backward would consume the record of %s", layerName(layer), layerName(r.layer)))
	}
	t.recs[len(t.recs)-1] = record{}
	t.recs = t.recs[:len(t.recs)-1]
	return r
}

// layerName names a layer in a tape-misuse panic.
func layerName(layer any) string {
	switch l := layer.(type) {
	case *Linear:
		return "Linear " + strings.TrimSuffix(l.W.Name, ".W")
	case *MLP:
		return "MLP " + strings.TrimSuffix(l.Layers[0].W.Name, ".0.W")
	case *CrossNet:
		return "CrossNet " + strings.TrimSuffix(l.Ws[0].Name, ".W0")
	case *EmbeddingBag:
		return "EmbeddingBag " + l.Name
	}
	return fmt.Sprintf("%T", layer)
}

func mustRank2(op string, t *tensor.Tensor) {
	if t.Rank() != 2 {
		panic(fmt.Sprintf("nn: %s requires a 2-D tensor, got shape %v", op, t.Shape()))
	}
}
