package tensor

import (
	"math"
	"testing"
)

func TestAddSubMulScale(t *testing.T) {
	a := FromSlice([]float32{1, 2, 3, 4}, 2, 2)
	b := FromSlice([]float32{10, 20, 30, 40}, 2, 2)
	if got := Add(a, b).Data(); got[3] != 44 {
		t.Fatalf("Add got %v", got)
	}
	if got := Sub(b, a).Data(); got[0] != 9 {
		t.Fatalf("Sub got %v", got)
	}
	if got := Mul(a, b).Data(); got[2] != 90 {
		t.Fatalf("Mul got %v", got)
	}
	c := a.Clone()
	ScaleInPlace(c, 0.5)
	if got := c.Data(); got[1] != 1 {
		t.Fatalf("ScaleInPlace got %v", got)
	}
}

func TestAddShapeMismatchPanics(t *testing.T) {
	defer expectPanic(t, "shape mismatch")
	Add(New(2), New(3))
}

func TestAddInPlace(t *testing.T) {
	a := FromSlice([]float32{1, 2}, 2)
	AddInPlace(a, FromSlice([]float32{3, 4}, 2))
	if a.Data()[1] != 6 {
		t.Fatalf("AddInPlace got %v", a.Data())
	}
}

func TestAddRowVector(t *testing.T) {
	a := FromSlice([]float32{1, 2, 3, 4, 5, 6}, 2, 3)
	v := FromSlice([]float32{10, 20, 30}, 3)
	out := AddRowVector(a, v)
	if out != a {
		t.Fatal("AddRowVector returned a new tensor; it adds in place")
	}
	want := []float32{11, 22, 33, 14, 25, 36}
	for i, w := range want {
		if out.Data()[i] != w {
			t.Fatalf("AddRowVector got %v want %v", out.Data(), want)
		}
	}
}

func TestSumMeanDotNorm(t *testing.T) {
	a := FromSlice([]float32{3, 4}, 2)
	if a.Sum() != 7 || a.Mean() != 3.5 {
		t.Fatalf("Sum/Mean got %v/%v", a.Sum(), a.Mean())
	}
	if math.Abs(a.L2Norm()-5) > 1e-12 {
		t.Fatalf("L2Norm got %v", a.L2Norm())
	}
	if (&Tensor{}).Mean() != 0 {
		t.Fatal("Mean of empty should be 0")
	}
}

func TestSumRows(t *testing.T) {
	a := FromSlice([]float32{1, 2, 3, 4, 5, 6}, 2, 3)
	s := SumRows(a)
	want := []float32{5, 7, 9}
	for i, w := range want {
		if s.Data()[i] != w {
			t.Fatalf("SumRows got %v", s.Data())
		}
	}
}

func TestRNGDeterminism(t *testing.T) {
	a, b := NewRNG(42), NewRNG(42)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same seed must give same stream")
		}
	}
	if NewRNG(1).Uint64() == NewRNG(2).Uint64() {
		t.Fatal("different seeds should differ")
	}
}

func TestRNGUniformRange(t *testing.T) {
	r := NewRNG(7)
	for i := 0; i < 1000; i++ {
		v := r.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64 out of range: %v", v)
		}
		n := r.Intn(10)
		if n < 0 || n >= 10 {
			t.Fatalf("Intn out of range: %d", n)
		}
	}
}

func TestRNGNormalMoments(t *testing.T) {
	r := NewRNG(123)
	const n = 50000
	var sum, sumSq float64
	for i := 0; i < n; i++ {
		v := r.NormFloat64()
		sum += v
		sumSq += v * v
	}
	mean := sum / n
	variance := sumSq/n - mean*mean
	if math.Abs(mean) > 0.02 {
		t.Fatalf("normal mean drifted: %v", mean)
	}
	if math.Abs(variance-1) > 0.05 {
		t.Fatalf("normal variance drifted: %v", variance)
	}
}

func TestRNGPermIsPermutation(t *testing.T) {
	p := NewRNG(5).Perm(20)
	seen := make(map[int]bool)
	for _, v := range p {
		if v < 0 || v >= 20 || seen[v] {
			t.Fatalf("not a permutation: %v", p)
		}
		seen[v] = true
	}
}

func TestRNGSplitIndependence(t *testing.T) {
	r := NewRNG(9)
	c1 := r.Split(1)
	r2 := NewRNG(9)
	c2 := r2.Split(2)
	if c1.Uint64() == c2.Uint64() {
		t.Fatal("children with different labels should diverge")
	}
}

func TestRandHelpers(t *testing.T) {
	r := NewRNG(11)
	u := RandUniform(r, -2, 2, 100)
	for _, v := range u.Data() {
		if v < -2 || v >= 2 {
			t.Fatalf("RandUniform out of range: %v", v)
		}
	}
	x := XavierUniform(r, 50, 50, 50, 50)
	bound := math.Sqrt(6.0 / 100.0)
	for _, v := range x.Data() {
		if float64(v) < -bound || float64(v) >= bound {
			t.Fatalf("Xavier out of bound: %v", v)
		}
	}
	n := RandN(r, 0.1, 1000)
	if math.Abs(n.Mean()) > 0.02 {
		t.Fatalf("RandN mean drifted: %v", n.Mean())
	}
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

// Perm returns a random permutation of [0, n) (Fisher-Yates).
func (r *RNG) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}
