package tensor

import "testing"

// TestArenaReuse checks that an arena's tensors are zeroed however dirty
// their memory was, keep their data while later tensors grow the arena
// past a chunk, and come from the same memory once the arena is reset.
func TestArenaReuse(t *testing.T) {
	var a Arena
	small := a.New(3, 4)
	for i := range small.Data() {
		small.Data()[i] = float32(i + 1)
	}
	big := a.New(2 * minArenaChunk) // past the first chunk: a new one
	if len(big.Data()) != 2*minArenaChunk {
		t.Fatalf("big tensor has %d elements", len(big.Data()))
	}
	for i, v := range small.Data() {
		if v != float32(i+1) {
			t.Fatalf("growing the arena changed an earlier tensor: element %d is %v", i, v)
		}
	}
	a.Reset()
	again := a.New(4, 3)
	if &again.Data()[0] != &small.Data()[0] {
		t.Error("after Reset the first tensor does not reuse the first tensor's memory")
	}
	if again.Dim(0) != 4 || again.Dim(1) != 3 {
		t.Errorf("reused header has shape %v", again.Shape())
	}
	for i, v := range again.Data() {
		if v != 0 {
			t.Fatalf("reused element %d is %v, want 0", i, v)
		}
	}
	v := a.Reshape(again, 2, -1)
	if v.Dim(1) != 6 || &v.Data()[0] != &again.Data()[0] {
		t.Errorf("Reshape view has shape %v and does not share the data", v.Shape())
	}
}

// TestArenaSteadyStateAllocs pins a repeated pass over a grown arena at
// zero allocations: headers, shapes, data, views and Concat all reuse it.
func TestArenaSteadyStateAllocs(t *testing.T) {
	var a Arena
	pass := func() {
		a.Reset()
		x := a.New(5, 8)
		y := a.New(5, 3)
		z := a.Concat(1, x, y)
		a.Reshape(z, -1)
		a.New(7, 6, 5)
	}
	pass()
	if n := testing.AllocsPerRun(100, pass); n != 0 {
		t.Errorf("a pass over a grown arena allocates %v times", n)
	}
}

// TestNilArenaUsesTheHeap checks that a nil arena is the heap: fresh
// tensors, Reshape and Concat as the package functions compute them.
func TestNilArenaUsesTheHeap(t *testing.T) {
	var a *Arena
	a.Reset()
	x, y := a.New(2, 2), a.New(2, 2)
	if &x.Data()[0] == &y.Data()[0] {
		t.Fatal("a nil arena returned the same memory twice")
	}
	x.Data()[1], y.Data()[2] = 1, 2
	if !a.Concat(1, x, y).Equal(Concat(1, x, y)) || !a.Reshape(x, 4).Equal(x.Reshape(4)) {
		t.Error("nil-arena Concat or Reshape differs from the package function")
	}
}

// TestMatMulBTIntoAllocs pins MatMulBTInto at a serving micro-batch's shape
// at zero allocations, and checks it overwrites a dirty out with MatMulBT's
// bits.
func TestMatMulBTIntoAllocs(t *testing.T) {
	r := NewRNG(3)
	a, b := RandN(r, 1, 5, 96), RandN(r, 1, 128, 96)
	out := Full(7, 5, 128)
	MatMulBTInto(out, a, b)
	if !out.Equal(MatMulBT(a, b)) {
		t.Fatal("MatMulBTInto into a dirty out differs from MatMulBT")
	}
	if n := testing.AllocsPerRun(50, func() { MatMulBTInto(out, a, b) }); n != 0 {
		t.Errorf("MatMulBTInto allocates %v times", n)
	}
}
