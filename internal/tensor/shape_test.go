package tensor

import (
	"testing"
	"testing/quick"
)

func TestTranspose2D(t *testing.T) {
	a := FromSlice([]float32{1, 2, 3, 4, 5, 6}, 2, 3)
	at := Transpose2D(a)
	if at.Dim(0) != 3 || at.Dim(1) != 2 {
		t.Fatalf("shape %v", at.Shape())
	}
	if at.At(2, 1) != 6 || at.At(0, 1) != 4 {
		t.Fatalf("transpose wrong: %v", at.Data())
	}
}

func TestTranspose3D01(t *testing.T) {
	// (2, 3, 2) -> (3, 2, 2); payload vectors must move intact.
	a := New(2, 3, 2)
	for i := 0; i < 2; i++ {
		for j := 0; j < 3; j++ {
			a.Set(float32(10*i+j), i, j, 0)
			a.Set(float32(10*i+j)+0.5, i, j, 1)
		}
	}
	b := Transpose3D01(a)
	for i := 0; i < 2; i++ {
		for j := 0; j < 3; j++ {
			if b.At(j, i, 0) != float32(10*i+j) || b.At(j, i, 1) != float32(10*i+j)+0.5 {
				t.Fatalf("Transpose3D01 moved payload wrong at (%d,%d)", i, j)
			}
		}
	}
}

func TestTranspose3D01Involution(t *testing.T) {
	f := func(seed uint64, d0u, d1u, d2u uint8) bool {
		d0, d1, d2 := int(d0u%5)+1, int(d1u%5)+1, int(d2u%5)+1
		a := RandN(NewRNG(seed), 1, d0, d1, d2)
		return Transpose3D01(Transpose3D01(a)).Equal(a)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestConcatAxis0And1(t *testing.T) {
	a := FromSlice([]float32{1, 2, 3, 4}, 2, 2)
	b := FromSlice([]float32{5, 6}, 1, 2)
	c0 := Concat(0, a, b)
	if c0.Dim(0) != 3 || c0.At(2, 1) != 6 {
		t.Fatalf("Concat axis0 wrong: %v", c0.Data())
	}
	d := FromSlice([]float32{7, 8}, 2, 1)
	c1 := Concat(1, a, d)
	if c1.Dim(1) != 3 || c1.At(0, 2) != 7 || c1.At(1, 2) != 8 {
		t.Fatalf("Concat axis1 wrong: %v", c1.Data())
	}
	// Negative axis.
	cneg := Concat(-1, a, d)
	if !cneg.Equal(c1) {
		t.Fatal("negative axis should match positive")
	}
}

func TestConcatMismatchPanics(t *testing.T) {
	defer expectPanic(t, "dim mismatch")
	Concat(0, New(2, 2), New(2, 3))
}

func TestSplitColsRoundTrip(t *testing.T) {
	r := NewRNG(8)
	a := RandN(r, 1, 4, 10)
	parts := SplitCols(a, []int{3, 2, 5})
	back := Concat(1, parts...)
	if !back.Equal(a) {
		t.Fatal("SplitCols/Concat round trip failed")
	}
	// Split outputs are copies.
	parts[0].Set(99, 0, 0)
	if a.At(0, 0) == 99 {
		t.Fatal("SplitCols must copy")
	}
}

func TestSplitColsBadWidths(t *testing.T) {
	defer expectPanic(t, "bad widths")
	SplitCols(New(2, 4), []int{1, 1})
}

func TestSelectFeatures(t *testing.T) {
	r := NewRNG(9)
	x := RandN(r, 1, 2, 5, 3)
	idx := []int{4, 1, 3}
	sel := SelectFeatures(x, idx)
	if sel.Dim(1) != 3 {
		t.Fatalf("SelectFeatures shape %v", sel.Shape())
	}
	for b := 0; b < 2; b++ {
		for i, fi := range idx {
			for p := 0; p < 3; p++ {
				if sel.At(b, i, p) != x.At(b, fi, p) {
					t.Fatal("SelectFeatures gathered wrong slot")
				}
			}
		}
	}
}

// Property: Concat along axis 0 preserves per-part content.
func TestQuickConcatPreservesParts(t *testing.T) {
	f := func(seed uint64, n1u, n2u, wu uint8) bool {
		n1, n2, w := int(n1u%6)+1, int(n2u%6)+1, int(wu%6)+1
		r := NewRNG(seed)
		a := RandN(r, 1, n1, w)
		b := RandN(r, 1, n2, w)
		c := Concat(0, a, b)
		for i := 0; i < n1; i++ {
			for j := 0; j < w; j++ {
				if c.At(i, j) != a.At(i, j) {
					return false
				}
			}
		}
		for i := 0; i < n2; i++ {
			for j := 0; j < w; j++ {
				if c.At(n1+i, j) != b.At(i, j) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// Transpose2D returns the transpose of a (h, w) tensor as a new (w, h) tensor.
func Transpose2D(a *Tensor) *Tensor {
	if len(a.shape) != 2 {
		panic("tensor: Transpose2D requires a 2-D tensor")
	}
	h, w := a.shape[0], a.shape[1]
	out := New(w, h)
	for r := 0; r < h; r++ {
		row := a.data[r*w : (r+1)*w]
		for c := 0; c < w; c++ {
			out.data[c*h+r] = row[c]
		}
	}
	return out
}
