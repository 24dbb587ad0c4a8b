package tensor

import (
	"runtime"
	"testing"
)

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

// TestArenaSizesChunksExactly checks the sizing a Reset does after a pass
// that spilled: the chunks past the first become one of exactly the spill,
// a repeated pass fits it with nothing allocated, a smaller one changes
// nothing, and a larger one resizes it to the larger spill.
func TestArenaSizesChunksExactly(t *testing.T) {
	var a Arena
	pass := func(sizes ...int) {
		a.Reset()
		for _, n := range sizes {
			a.New(n)
		}
	}
	pass(100, minArenaChunk, 3*minArenaChunk) // spills 4·minArenaChunk past chunks[0]
	pass(100, minArenaChunk, 3*minArenaChunk)
	if len(a.chunks) != 2 || len(a.chunks[1]) != 4*minArenaChunk {
		t.Fatalf("after a spilling pass the arena holds %d chunks, the second of %d, want 2 and %d", len(a.chunks), len(a.chunks[1]), 4*minArenaChunk)
	}
	if n := testing.AllocsPerRun(20, func() { pass(100, minArenaChunk, 3*minArenaChunk) }); n != 0 {
		t.Errorf("a repeated pass over an exactly sized arena allocates %v times", n)
	}
	pass(minArenaChunk)
	pass(minArenaChunk)
	if len(a.chunks[1]) != 4*minArenaChunk {
		t.Errorf("a smaller pass resized the spill chunk to %d", len(a.chunks[1]))
	}
	pass(100, 5*minArenaChunk, 2*minArenaChunk)
	pass(100)
	if len(a.chunks) != 2 || len(a.chunks[1]) != 7*minArenaChunk {
		t.Errorf("after a larger spill the arena holds %d chunks, the second of %d, want 2 and %d", len(a.chunks), len(a.chunks[1]), 7*minArenaChunk)
	}
}

// TestArenaRewindAndViews checks Rewind and DropViews against Reset: Rewind
// reuses the data from the start while every header keeps its shape and is
// not handed out again; DropViews lets a view of memory the arena does not
// hold let go of it and keeps views of the arena's own memory; Reset lets
// go of every view.
func TestArenaRewindAndViews(t *testing.T) {
	var a Arena
	input := Full(3, 4, 6)
	view := a.Reshape(input, 6, 4)
	first := a.New(2, 3)
	a.Rewind()
	again := a.New(2, 3)
	if &again.Data()[0] != &first.Data()[0] {
		t.Error("after Rewind the first tensor does not reuse the first tensor's memory")
	}
	if again == view || again == first || view.Dim(0) != 6 || &view.Data()[0] != &input.Data()[0] {
		t.Error("Rewind handed out a header in use or changed a view")
	}
	a.DropViews()
	if view.Data() != nil || len(again.Data()) != 6 {
		t.Errorf("DropViews left the input view with %d elements and the arena's own tensor with %d", len(view.Data()), len(again.Data()))
	}
	own := a.Reshape(again, 3, 2)
	a.Reset()
	if own.Data() != nil {
		t.Error("Reset left a header holding data")
	}
}

// TestArenaPoolKeepsGOMAXPROCS checks that an ArenaPool lends its most
// recently returned arena, reset, and keeps at most GOMAXPROCS arenas.
func TestArenaPoolKeepsGOMAXPROCS(t *testing.T) {
	var p ArenaPool
	keep := runtime.GOMAXPROCS(0)
	lent := make([]*Arena, keep+2)
	for i := range lent {
		lent[i] = p.Get()
		lent[i].New(5)
	}
	for _, a := range lent {
		p.Put(a)
	}
	if len(p.free) != keep {
		t.Fatalf("the pool keeps %d arenas, want GOMAXPROCS = %d", len(p.free), keep)
	}
	a := p.Get()
	if a != lent[keep-1] || a.nh != 0 || a.off != 0 {
		t.Error("Get did not lend the most recently returned arena, reset")
	}
}

// TestArenaMatMulAndCols holds the arena's MatMul and Cols to the heap's
// MatMul and SplitCols, bit for bit, on dirty arena memory.
func TestArenaMatMulAndCols(t *testing.T) {
	r := NewRNG(8)
	x, w := RandN(r, 1, 7, 5), RandN(r, 1, 5, 9)
	var a Arena
	copy(a.New(200).Data(), RandN(r, 1, 200).Data())
	a.Reset()
	if !a.MatMul(x, w).Equal(MatMul(x, w)) {
		t.Error("Arena.MatMul differs from MatMul")
	}
	parts := SplitCols(w, []int{2, 4, 3})
	if !a.Cols(w, 2, 6).Equal(parts[1]) {
		t.Error("Arena.Cols differs from SplitCols")
	}
}
