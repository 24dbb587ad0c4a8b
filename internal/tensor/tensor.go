// Package tensor implements the dense float32 tensor substrate used by the
// DMT reproduction: contiguous row-major tensors, a deterministic RNG,
// elementwise and reduction kernels, and matrix multiplies that run on the
// calling goroutine (the package starts none).
//
// The package is intentionally small: it provides exactly the operations the
// recommendation models (DLRM, DCN, tower modules) and the Tower Partitioner
// need, with no autograd — gradients are produced by explicit Backward
// methods in package nn, each of which is verified against numerical
// differentiation in tests.
package tensor

import (
	"fmt"
	"math"
	"slices"
)

// Tensor is a contiguous, row-major dense tensor of float32 values.
// The zero value is an empty tensor; use New or the constructors below.
type Tensor struct {
	shape []int
	data  []float32
}

// New returns a zero-filled tensor with the given shape.
// New() returns a scalar-shaped tensor holding one element.
func New(shape ...int) *Tensor {
	n := checkShape(shape)
	return &Tensor{shape: append([]int(nil), shape...), data: make([]float32, n)}
}

// FromSlice wraps data in a tensor with the given shape. The slice is used
// directly (not copied); its length must equal the shape's element count.
func FromSlice(data []float32, shape ...int) *Tensor {
	n := checkShape(shape)
	if len(data) != n {
		panic(fmt.Sprintf("tensor: FromSlice data length %d does not match shape %v (%d elements)", len(data), shape, n))
	}
	return &Tensor{shape: append([]int(nil), shape...), data: data}
}

// Full returns a tensor with every element set to v.
func Full(v float32, shape ...int) *Tensor {
	t := New(shape...)
	for i := range t.data {
		t.data[i] = v
	}
	return t
}

// checkShape validates a shape and returns its element count.
func checkShape(shape []int) int {
	n := 1
	for _, d := range shape {
		if d < 0 {
			// A copy, so shape itself does not escape: callers' variadic
			// shapes stay on their stacks.
			panic(fmt.Sprintf("tensor: negative dimension in shape %v", slices.Clone(shape)))
		}
		n *= d
	}
	return n
}

// Shape returns the tensor's shape. The returned slice must not be modified.
func (t *Tensor) Shape() []int { return t.shape }

// Data returns the backing slice. Mutations are visible to the tensor.
func (t *Tensor) Data() []float32 { return t.data }

// Len returns the total number of elements.
func (t *Tensor) Len() int { return len(t.data) }

// Rank returns the number of dimensions.
func (t *Tensor) Rank() int { return len(t.shape) }

// Dim returns the size of dimension i, supporting negative indices
// (-1 is the last dimension).
func (t *Tensor) Dim(i int) int {
	if i < 0 {
		i += len(t.shape)
	}
	return t.shape[i]
}

// At returns the element at the given multi-dimensional index.
func (t *Tensor) At(idx ...int) float32 {
	return t.data[t.flatIndex(idx)]
}

// Set assigns v to the element at the given multi-dimensional index.
func (t *Tensor) Set(v float32, idx ...int) {
	t.data[t.flatIndex(idx)] = v
}

// flatIndex formats only a copy of idx into its panics, so idx does not
// escape and At's and Set's variadic index slices stay on their callers'
// stacks.
func (t *Tensor) flatIndex(idx []int) int {
	if len(idx) != len(t.shape) {
		panic(fmt.Sprintf("tensor: index %v has wrong rank for shape %v", slices.Clone(idx), t.shape))
	}
	flat := 0
	for i, ix := range idx {
		if ix < 0 || ix >= t.shape[i] {
			panic(fmt.Sprintf("tensor: index %v out of range for shape %v", slices.Clone(idx), t.shape))
		}
		flat = flat*t.shape[i] + ix
	}
	return flat
}

// Clone returns a deep copy.
func (t *Tensor) Clone() *Tensor {
	c := New(t.shape...)
	copy(c.data, t.data)
	return c
}

// CopyFrom copies src's data into t. Shapes must have equal element counts.
func (t *Tensor) CopyFrom(src *Tensor) {
	if len(t.data) != len(src.data) {
		panic(fmt.Sprintf("tensor: CopyFrom size mismatch %d vs %d", len(t.data), len(src.data)))
	}
	copy(t.data, src.data)
}

// Zero sets every element to zero.
func (t *Tensor) Zero() {
	for i := range t.data {
		t.data[i] = 0
	}
}

// Reshape returns a tensor sharing t's data with a new shape of equal
// element count. One dimension may be -1 and is inferred.
func (t *Tensor) Reshape(shape ...int) *Tensor {
	return &Tensor{shape: reshapeDims(append([]int(nil), shape...), t), data: t.data}
}

// Row returns a view of row i of a 2-D tensor as a []float32.
func (t *Tensor) Row(i int) []float32 {
	if len(t.shape) != 2 {
		panic("tensor: Row requires a 2-D tensor")
	}
	w := t.shape[1]
	return t.data[i*w : (i+1)*w]
}

// Rows views leading-axis rows [lo, hi) of t as a tensor of their own,
// sharing t's data: collectives deliver payloads by reference, so a chunk
// cut from a buffer that is not written again needs no copy.
func (t *Tensor) Rows(lo, hi int) *Tensor {
	w := checkShape(t.shape[1:])
	return &Tensor{shape: append([]int{hi - lo}, t.shape[1:]...), data: t.data[lo*w : hi*w]}
}

// SameShape reports whether t and o have identical shapes.
func (t *Tensor) SameShape(o *Tensor) bool {
	if len(t.shape) != len(o.shape) {
		return false
	}
	for i := range t.shape {
		if t.shape[i] != o.shape[i] {
			return false
		}
	}
	return true
}

// Equal reports whether t and o have the same shape and bit-identical data.
func (t *Tensor) Equal(o *Tensor) bool {
	if !t.SameShape(o) {
		return false
	}
	for i := range t.data {
		if t.data[i] != o.data[i] && !(isNaN32(t.data[i]) && isNaN32(o.data[i])) {
			return false
		}
	}
	return true
}

// AllClose reports whether t and o have the same shape and every pair of
// elements differs by at most atol + rtol*|o|.
func (t *Tensor) AllClose(o *Tensor, rtol, atol float64) bool {
	if !t.SameShape(o) {
		return false
	}
	for i := range t.data {
		a, b := float64(t.data[i]), float64(o.data[i])
		if math.Abs(a-b) > atol+rtol*math.Abs(b) {
			return false
		}
	}
	return true
}

// MaxAbsDiff returns the maximum absolute elementwise difference between two
// same-shaped tensors. Useful for debugging equivalence tests.
func (t *Tensor) MaxAbsDiff(o *Tensor) float64 {
	if !t.SameShape(o) {
		panic("tensor: MaxAbsDiff shape mismatch")
	}
	max := 0.0
	for i := range t.data {
		d := math.Abs(float64(t.data[i]) - float64(o.data[i]))
		if d > max {
			max = d
		}
	}
	return max
}

func isNaN32(f float32) bool { return f != f }

// String renders small tensors fully and large ones as a summary.
func (t *Tensor) String() string {
	if len(t.data) <= 16 {
		return fmt.Sprintf("Tensor%v%v", t.shape, t.data)
	}
	return fmt.Sprintf("Tensor%v[%d elements]", t.shape, len(t.data))
}
