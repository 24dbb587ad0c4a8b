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

// ReLUGate sets d[i] to +0 wherever !(y[i] > 0), NaN and −0 included,
// and leaves the other elements' bits as they are: a ReLU in place when d
// is y, and its backward gate when y is the ReLU's output.
func ReLUGate(d, y *Tensor) {
	mustSameShape("ReLUGate", d, y)
	gateVec(d.data, y.data)
}

// The scalar references below, replaced when init finds AVX2 by routines
// (gemm_amd64.go) that repeat their operations and order exactly, so the
// results match bit for bit (NaN payloads: see elementwise_amd64.s).
var addVec, scaleVec, adamVec, gateVec = addRef, scaleRef, adamRef, gateRef

func gateRef(d, y []float32) {
	y = y[:len(d)]
	for i, v := range y {
		if !(v > 0) {
			d[i] = 0
		}
	}
}

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
// place and returns a: AddInPlace's routine, a row at a time. Used for
// linear-layer biases, on a GEMM's fresh output.
func AddRowVector(a, v *Tensor) *Tensor {
	if len(a.shape) != 2 || len(v.shape) != 1 || a.shape[1] != v.shape[0] {
		panic(fmt.Sprintf("tensor: AddRowVector shapes %v, %v", a.shape, v.shape))
	}
	w := a.shape[1]
	for r := range a.shape[0] {
		addVec(a.data[r*w:(r+1)*w], v.data)
	}
	return a
}

// L2Norm returns the Euclidean norm of all elements.
func (t *Tensor) L2Norm() float64 {
	s := 0.0
	for _, v := range t.data {
		s += float64(v) * float64(v)
	}
	return math.Sqrt(s)
}

// AddSumRows adds a's row sum into dst, of length w, for a of shape (h, w):
// the bias-gradient accumulation with no temporary. Each column's sum is
// formed from zero in row order, as SumRows forms it, and added to dst
// once, so dst ends bitwise as AddInPlace(dst, SumRows(a)) leaves it; every
// add is AddInPlace's, a row at a time. It allocates nothing.
func AddSumRows(dst, a *Tensor) {
	if len(a.shape) != 2 || len(dst.shape) != 1 || dst.shape[0] != a.shape[1] {
		panic(fmt.Sprintf("tensor: AddSumRows shapes %v += Σ rows of %v", dst.shape, a.shape))
	}
	addSumRowsVec(dst.data, a.data, a.shape[0], a.shape[1])
}

// addSumRowsVec is AddSumRows' routine, selected with addVec: it calls its
// add directly, so its stack buffer stays on the stack.
var addSumRowsVec = addSumRowsRef

// addSumRowsRef adds the row sum of a, (h, w), into dst, 512 columns at a
// time: each block's sums are formed from zero by addRef, row by row, and
// added to dst once.
func addSumRowsRef(dst, a []float32, h, w int) {
	var buf [512]float32
	for c := 0; c < w; c += len(buf) {
		acc := buf[:min(len(buf), w-c)]
		clear(acc)
		for r := range h {
			addRef(acc, a[r*w+c:r*w+c+len(acc)])
		}
		addRef(dst[c:c+len(acc)], acc)
	}
}

func mustSameShape(op string, a, b *Tensor) {
	if !a.SameShape(b) {
		panic(fmt.Sprintf("tensor: %s shape mismatch %v vs %v", op, a.shape, b.shape))
	}
}
