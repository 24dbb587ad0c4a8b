package tensor

import (
	"math"
	"testing"
)

func TestNewZeroFilled(t *testing.T) {
	x := New(2, 3)
	if x.Len() != 6 || x.Rank() != 2 {
		t.Fatalf("got len=%d rank=%d", x.Len(), x.Rank())
	}
	for _, v := range x.Data() {
		if v != 0 {
			t.Fatal("New must zero-fill")
		}
	}
}

func TestNewScalar(t *testing.T) {
	x := New()
	if x.Len() != 1 {
		t.Fatalf("scalar tensor has %d elements", x.Len())
	}
}

func TestFromSliceSharesData(t *testing.T) {
	d := []float32{1, 2, 3, 4}
	x := FromSlice(d, 2, 2)
	d[0] = 9
	if x.At(0, 0) != 9 {
		t.Fatal("FromSlice must not copy")
	}
}

func TestFromSliceBadLength(t *testing.T) {
	defer expectPanic(t, "length mismatch")
	FromSlice([]float32{1, 2, 3}, 2, 2)
}

func TestAtSetRoundTrip(t *testing.T) {
	x := New(2, 3, 4)
	x.Set(7.5, 1, 2, 3)
	if x.At(1, 2, 3) != 7.5 {
		t.Fatal("At/Set mismatch")
	}
	// Row-major layout: flat index of (1,2,3) in (2,3,4) is 1*12+2*4+3 = 23.
	if x.Data()[23] != 7.5 {
		t.Fatal("row-major layout violated")
	}
}

func TestAtOutOfRange(t *testing.T) {
	defer expectPanic(t, "out of range")
	New(2, 2).At(2, 0)
}

func TestDimNegativeIndex(t *testing.T) {
	x := New(2, 3, 4)
	if x.Dim(-1) != 4 || x.Dim(-3) != 2 || x.Dim(1) != 3 {
		t.Fatal("Dim negative indexing broken")
	}
}

func TestCloneIndependent(t *testing.T) {
	x := Full(2, 3)
	y := x.Clone()
	y.Data()[0] = 5
	if x.Data()[0] != 2 {
		t.Fatal("Clone must deep copy")
	}
}

func TestReshapeSharesAndInfers(t *testing.T) {
	x := FromSlice([]float32{1, 2, 3, 4, 5, 6}, 2, 3)
	y := x.Reshape(3, -1)
	if y.Dim(1) != 2 {
		t.Fatalf("inferred dim = %d", y.Dim(1))
	}
	y.Set(42, 0, 0)
	if x.At(0, 0) != 42 {
		t.Fatal("Reshape must share data")
	}
}

// TestRowsSharesData: a leading-axis row range keeps the trailing shape
// and views the parent's data, including the empty range.
func TestRowsSharesData(t *testing.T) {
	x := New(4, 2, 3)
	v := x.Rows(1, 3)
	if !v.SameShape(New(2, 2, 3)) {
		t.Fatalf("Rows(1, 3) shape %v", v.Shape())
	}
	v.Set(5, 1, 1, 2)
	if x.At(2, 1, 2) != 5 {
		t.Fatal("Rows does not share data")
	}
	if e := x.Rows(4, 4); e.Dim(0) != 0 || e.Len() != 0 {
		t.Fatalf("Rows(4, 4) = %v, %d elements", e.Shape(), e.Len())
	}
}

func TestReshapeBadCount(t *testing.T) {
	defer expectPanic(t, "element count")
	New(2, 3).Reshape(4, 2)
}

func TestEqualAndAllClose(t *testing.T) {
	a := FromSlice([]float32{1, 2, 3}, 3)
	b := FromSlice([]float32{1, 2, 3.00001}, 3)
	if a.Equal(b) {
		t.Fatal("Equal should be exact")
	}
	if !a.AllClose(b, 1e-5, 1e-5) {
		t.Fatal("AllClose should tolerate tiny error")
	}
	if a.AllClose(New(4), 1, 1) {
		t.Fatal("AllClose must reject shape mismatch")
	}
}

func TestEqualTreatsNaNEqual(t *testing.T) {
	nan := float32(math.NaN())
	a := FromSlice([]float32{nan}, 1)
	b := FromSlice([]float32{nan}, 1)
	if !a.Equal(b) {
		t.Fatal("NaN positions should compare equal for test plumbing")
	}
}

func TestRowView(t *testing.T) {
	x := FromSlice([]float32{1, 2, 3, 4}, 2, 2)
	r := x.Row(1)
	r[0] = 7
	if x.At(1, 0) != 7 {
		t.Fatal("Row must return a view")
	}
}

func TestMaxAbsDiff(t *testing.T) {
	a := FromSlice([]float32{1, 5}, 2)
	b := FromSlice([]float32{1, 2}, 2)
	if d := a.MaxAbsDiff(b); d != 3 {
		t.Fatalf("MaxAbsDiff = %v", d)
	}
}

func expectPanic(t *testing.T, context string) {
	t.Helper()
	if recover() == nil {
		t.Fatalf("expected panic: %s", context)
	}
}

// TestAtSetAllocateNothing pins At and Set at zero allocations: their
// variadic index slices stay on the caller's stack, because the bounds
// panics format a copy of the index, not the index itself.
func TestAtSetAllocateNothing(t *testing.T) {
	x := New(3, 4, 5)
	var sink float32
	if n := testing.AllocsPerRun(100, func() {
		x.Set(sink+1, 2, 3, 4)
		sink = x.At(1, 2, 3)
	}); n != 0 {
		t.Errorf("At and Set allocate %v times a call pair", n)
	}
}
