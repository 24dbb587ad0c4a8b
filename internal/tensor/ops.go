package tensor

import (
	"fmt"
	"math"
)

// Add returns a + b elementwise. Shapes must match.
func Add(a, b *Tensor) *Tensor {
	mustSameShape("Add", a, b)
	out := New(a.shape...)
	for i := range out.data {
		out.data[i] = a.data[i] + b.data[i]
	}
	return out
}

// Sub returns a - b elementwise.
func Sub(a, b *Tensor) *Tensor {
	mustSameShape("Sub", a, b)
	out := New(a.shape...)
	for i := range out.data {
		out.data[i] = a.data[i] - b.data[i]
	}
	return out
}

// Mul returns the elementwise (Hadamard) product a * b.
func Mul(a, b *Tensor) *Tensor {
	mustSameShape("Mul", a, b)
	out := New(a.shape...)
	for i := range out.data {
		out.data[i] = a.data[i] * b.data[i]
	}
	return out
}

// Scale returns s * a.
func Scale(a *Tensor, s float32) *Tensor {
	out := New(a.shape...)
	for i := range out.data {
		out.data[i] = a.data[i] * s
	}
	return out
}

// AddInPlace accumulates src into dst (dst += src).
func AddInPlace(dst, src *Tensor) {
	mustSameShape("AddInPlace", dst, src)
	addVec(dst.data, src.data)
}

// ScaleInPlace multiplies every element of t by f (t *= f).
func ScaleInPlace(t *Tensor, f float32) { scaleVec(t.data, f) }

// AdamStep is one Adam step's constants, BC1 = 1 − β₁ᵗ and BC2 = 1 − β₂ᵗ.
type AdamStep struct {
	LR, Beta1, Beta2, Eps float32
	BC1, BC2              float64
}

// AdamUpdate applies step s to w from gradient g, updating moments m and v.
func AdamUpdate(s AdamStep, w, g, m, v []float32) { adamVec(s, w, g, m, v) }

// The scalar references below, replaced when init finds AVX2 by routines
// (gemm_amd64.go) that repeat their operations and order exactly, so the
// results match bit for bit (NaN payloads: see elementwise_amd64.s).
var addVec, scaleVec, adamVec = addRef, scaleRef, adamRef

func addRef(d, s []float32) {
	s = s[:len(d)] // hoisted: no per-element bounds check
	for i := range d {
		d[i] += s[i]
	}
}

func scaleRef(d []float32, f float32) {
	for i := range d {
		d[i] *= f
	}
}

// adamRef is AdamUpdate's scalar reference: moments in float32, the ratio in
// float64, products written float32(a*b) so no compiler fuses them.
func adamRef(s AdamStep, w, g, m, v []float32) {
	g, m, v = g[:len(w)], m[:len(w)], v[:len(w)]
	c1, c2 := 1-s.Beta1, 1-s.Beta2
	for i, gi := range g {
		m[i] = float32(s.Beta1*m[i]) + float32(c1*gi)
		v[i] = float32(s.Beta2*v[i]) + float32(c2*gi*gi)
		mhat, vhat := float64(m[i])/s.BC1, float64(v[i])/s.BC2
		w[i] -= float32(s.LR * float32(mhat/(math.Sqrt(vhat)+float64(s.Eps))))
	}
}

// AddRowVector adds a length-w vector to every row of a (h, w) tensor in
// place and returns a. Used for linear-layer biases, on a GEMM's fresh
// output.
func AddRowVector(a, v *Tensor) *Tensor {
	if len(a.shape) != 2 || len(v.shape) != 1 || a.shape[1] != v.shape[0] {
		panic(fmt.Sprintf("tensor: AddRowVector shapes %v, %v", a.shape, v.shape))
	}
	w := a.shape[1]
	for r := 0; r < a.shape[0]; r++ {
		av := a.data[r*w : (r+1)*w]
		for c, bv := range v.data {
			av[c] += bv
		}
	}
	return a
}

// Sum returns the sum of all elements (accumulated in float64 for accuracy).
func (t *Tensor) Sum() float64 {
	s := 0.0
	for _, v := range t.data {
		s += float64(v)
	}
	return s
}

// Mean returns the arithmetic mean of all elements.
func (t *Tensor) Mean() float64 {
	if len(t.data) == 0 {
		return 0
	}
	return t.Sum() / float64(len(t.data))
}

// Dot returns the inner product of two same-length 1-D tensors.
func Dot(a, b *Tensor) float64 {
	if len(a.data) != len(b.data) {
		panic("tensor: Dot length mismatch")
	}
	s := 0.0
	for i := range a.data {
		s += float64(a.data[i]) * float64(b.data[i])
	}
	return s
}

// L2Norm returns the Euclidean norm of all elements.
func (t *Tensor) L2Norm() float64 {
	s := 0.0
	for _, v := range t.data {
		s += float64(v) * float64(v)
	}
	return math.Sqrt(s)
}

// SumRows reduces a (h, w) tensor over rows, returning a length-w vector.
// It is the backward of AddRowVector with respect to the vector.
func SumRows(a *Tensor) *Tensor {
	if len(a.shape) != 2 {
		panic("tensor: SumRows requires a 2-D tensor")
	}
	h, w := a.shape[0], a.shape[1]
	out := New(w)
	for r := 0; r < h; r++ {
		row := a.data[r*w : (r+1)*w]
		for c := 0; c < w; c++ {
			out.data[c] += row[c]
		}
	}
	return out
}

// Apply returns f mapped over every element.
func Apply(a *Tensor, f func(float32) float32) *Tensor {
	out := New(a.shape...)
	for i, v := range a.data {
		out.data[i] = f(v)
	}
	return out
}

func mustSameShape(op string, a, b *Tensor) {
	if !a.SameShape(b) {
		panic(fmt.Sprintf("tensor: %s shape mismatch %v vs %v", op, a.shape, b.shape))
	}
}
