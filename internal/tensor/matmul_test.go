package tensor

import (
	"testing"
	"testing/quick"
)

// naiveMatMul is the reference implementation matmuls are checked against.
func naiveMatMul(a, b *Tensor) *Tensor {
	m, k, n := a.Dim(0), a.Dim(1), b.Dim(1)
	out := New(m, n)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			var s float64
			for p := 0; p < k; p++ {
				s += float64(a.At(i, p)) * float64(b.At(p, j))
			}
			out.Set(float32(s), i, j)
		}
	}
	return out
}

func TestMatMulSmall(t *testing.T) {
	a := FromSlice([]float32{1, 2, 3, 4, 5, 6}, 2, 3)
	b := FromSlice([]float32{7, 8, 9, 10, 11, 12}, 3, 2)
	got := MatMul(a, b)
	want := []float32{58, 64, 139, 154}
	for i := range want {
		if got.Data()[i] != want[i] {
			t.Fatalf("MatMul got %v want %v", got.Data(), want)
		}
	}
}

func TestMatMulShapePanic(t *testing.T) {
	defer expectPanic(t, "bad shapes")
	MatMul(New(2, 3), New(2, 3))
}

func TestMatMulMatchesNaive(t *testing.T) {
	r := NewRNG(3)
	for _, dims := range [][3]int{{1, 1, 1}, {3, 5, 7}, {16, 8, 4}, {33, 17, 9}} {
		a := RandN(r, 1, dims[0], dims[1])
		b := RandN(r, 1, dims[1], dims[2])
		got := MatMul(a, b)
		want := naiveMatMul(a, b)
		if !got.AllClose(want, 1e-4, 1e-4) {
			t.Fatalf("MatMul %v mismatch, maxdiff=%v", dims, got.MaxAbsDiff(want))
		}
	}
}

func TestMatMulBT(t *testing.T) {
	r := NewRNG(5)
	a := RandN(r, 1, 6, 10)
	bt := RandN(r, 1, 4, 10) // (n, k)
	got := MatMulBT(a, bt)
	want := naiveMatMul(a, Transpose2D(bt))
	if !got.AllClose(want, 1e-4, 1e-4) {
		t.Fatalf("MatMulBT mismatch: %v", got.MaxAbsDiff(want))
	}
}

func TestMatMulAT(t *testing.T) {
	r := NewRNG(6)
	at := RandN(r, 1, 10, 6) // (k, m)
	b := RandN(r, 1, 10, 4)
	got := MatMulAT(at, b)
	want := naiveMatMul(Transpose2D(at), b)
	if !got.AllClose(want, 1e-4, 1e-4) {
		t.Fatalf("MatMulAT mismatch: %v", got.MaxAbsDiff(want))
	}
}

func TestBatchedPairwiseDot(t *testing.T) {
	r := NewRNG(7)
	x := RandN(r, 1, 3, 4, 5) // (B=3, F=4, N=5)
	got := BatchedPairwiseDot(x)
	if got.Dim(0) != 3 || got.Dim(1) != 4 || got.Dim(2) != 4 {
		t.Fatalf("bad shape %v", got.Shape())
	}
	for b := 0; b < 3; b++ {
		for i := 0; i < 4; i++ {
			for j := 0; j < 4; j++ {
				var want float64
				for p := 0; p < 5; p++ {
					want += float64(x.At(b, i, p)) * float64(x.At(b, j, p))
				}
				if diff := float64(got.At(b, i, j)) - want; diff > 1e-4 || diff < -1e-4 {
					t.Fatalf("pairwise dot (%d,%d,%d) off by %v", b, i, j, diff)
				}
				if got.At(b, i, j) != got.At(b, j, i) {
					t.Fatal("pairwise dot must be symmetric")
				}
			}
		}
	}
}

// Property: (A·B)ᵀ == Bᵀ·Aᵀ for random sizes.
func TestQuickMatMulTransposeIdentity(t *testing.T) {
	f := func(seed uint64, m8, k8, n8 uint8) bool {
		m, k, n := int(m8%12)+1, int(k8%12)+1, int(n8%12)+1
		r := NewRNG(seed)
		a := RandN(r, 1, m, k)
		b := RandN(r, 1, k, n)
		lhs := Transpose2D(MatMul(a, b))
		rhs := MatMul(Transpose2D(b), Transpose2D(a))
		return lhs.AllClose(rhs, 1e-4, 1e-4)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkMatMul128(b *testing.B) {
	r := NewRNG(1)
	x := RandN(r, 1, 128, 128)
	y := RandN(r, 1, 128, 128)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		MatMul(x, y)
	}
}

func BenchmarkBatchedPairwiseDot(b *testing.B) {
	r := NewRNG(1)
	x := RandN(r, 1, 64, 26, 32)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		BatchedPairwiseDot(x)
	}
}
