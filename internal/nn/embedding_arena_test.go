package nn

import (
	"sort"
	"testing"

	"dmt/internal/tensor"
)

// refBackward is the original map-based EmbeddingBag.Backward: a fresh
// []float32 per distinct row, accumulated in bag order then index order.
// The arena implementation must reproduce it bit for bit.
func refBackward(e *EmbeddingBag, indices, offsets []int32, dy *tensor.Tensor) *SparseGrad {
	acc := make(map[int][]float32)
	for b := 0; b < len(offsets); b++ {
		lo, hi := BagBounds(offsets, b, len(indices))
		if lo == hi {
			continue
		}
		g := dy.Row(b)
		for _, idx := range indices[lo:hi] {
			row := acc[int(idx)]
			if row == nil {
				row = make([]float32, e.Dim)
				acc[int(idx)] = row
			}
			for d := 0; d < e.Dim; d++ {
				row[d] += g[d]
			}
		}
	}
	rows := make([]int, 0, len(acc))
	for r := range acc {
		rows = append(rows, r)
	}
	sort.Ints(rows)
	grads := tensor.New(len(rows), e.Dim)
	for i, r := range rows {
		copy(grads.Row(i), acc[r])
	}
	return &SparseGrad{Rows: rows, Grads: grads}
}

// TestEmbeddingBackwardArenaBitwise runs many steps through one bag — so the
// arena is reused, regrown, and re-zeroed — and pins every step's sparse
// gradient bitwise against the reference implementation. Steps vary the
// touched-row set (including duplicate indices within and across bags and
// empty bags), which is exactly what would surface stale arena contents.
func TestEmbeddingBackwardArenaBitwise(t *testing.T) {
	r := tensor.NewRNG(11)
	e := NewEmbeddingBag(r, 50, 6, "arena")
	for step := 0; step < 12; step++ {
		// Bag shapes vary per step; step 3 includes an empty bag.
		indices := []int32{}
		offsets := []int32{}
		nbags := 2 + step%4
		for b := 0; b < nbags; b++ {
			offsets = append(offsets, int32(len(indices)))
			if step%5 == 3 && b == 1 {
				continue // empty bag
			}
			for k := 0; k <= (step+b)%4; k++ {
				// Deliberate collisions: a few rows recur every step,
				// others rotate in and out of the touched set.
				indices = append(indices, int32((7*step+13*b+k*k)%50))
			}
		}
		dy := tensor.RandUniform(r, -1, 1, nbags, e.Dim)

		tp := &Tape{Record: true}
		e.Forward(tp, indices, offsets)
		got := e.Backward(tp, dy)
		want := refBackward(e, indices, offsets, dy)

		if len(got.Rows) != len(want.Rows) {
			t.Fatalf("step %d: %d rows, want %d", step, len(got.Rows), len(want.Rows))
		}
		for i := range got.Rows {
			if got.Rows[i] != want.Rows[i] {
				t.Fatalf("step %d: row[%d]=%d, want %d", step, i, got.Rows[i], want.Rows[i])
			}
		}
		if !got.Grads.Equal(want.Grads) {
			t.Fatalf("step %d: arena backward diverged from reference (max abs diff %g)",
				step, got.Grads.MaxAbsDiff(want.Grads))
		}
	}
}

// TestEmbeddingBackwardAllocs pins Backward's steady-state allocations to
// the escaping result only (rows slice, gradient tensor, SparseGrad) —
// independent of how many rows the step touches. The old implementation
// allocated a map plus one []float32 per distinct row per step.
func TestEmbeddingBackwardAllocs(t *testing.T) {
	r := tensor.NewRNG(5)
	e := NewEmbeddingBag(r, 400, 16, "allocs")
	indices := make([]int32, 0, 256)
	offsets := make([]int32, 0, 64)
	for b := 0; b < 64; b++ {
		offsets = append(offsets, int32(len(indices)))
		for k := 0; k < 4; k++ {
			indices = append(indices, int32((b*37+k*101)%400))
		}
	}
	dy := tensor.RandUniform(r, -1, 1, 64, e.Dim)
	tp := &Tape{Record: true}
	e.Forward(tp, indices, offsets)
	e.Backward(tp, dy) // warm the arena to its high-water mark

	allocs := testing.AllocsPerRun(50, func() {
		e.Forward(tp, indices, offsets)
		e.Backward(tp, dy)
	})
	// Forward's output tensor + Backward's result: a handful of fixed
	// allocations, regardless of the ~200 distinct rows touched.
	if allocs > 12 {
		t.Fatalf("Forward+Backward allocates %.0f objects/op; want O(1), not O(rows)", allocs)
	}
}
