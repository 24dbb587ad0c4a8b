package nn

import (
	"fmt"

	"dmt/internal/tensor"
)

// EmbeddingBag is a pooled embedding table, the sparse component of
// recommendation models (§2.1). A lookup takes, per sample, a bag of row
// indices (single-hot bags have length 1) and returns their sum: partial
// sums compose wherever the rows live, which is what SPTT relies on
// (§3.1.3).
// Gradients are sparse: Backward returns the touched rows and their
// gradients, coalesced, which is what SparseAdam and the model-parallel
// gradient routing consume.
type EmbeddingBag struct {
	Name string
	Rows int
	Dim  int
	// Table is the (Rows, Dim) weight matrix. It is deliberately not a Param:
	// embedding tables are trained model-parallel with sparse updates, never
	// through the dense optimizer path (§2.2).
	Table *tensor.Tensor

	// slot is PoolBackward's scratch index for this table, one entry per row,
	// built on the first call and all zero between calls, so steady-state
	// backward allocates nothing beyond the returned SparseGrad.
	slot []int32
}

// NewEmbeddingBag creates a table initialized U(-1/Rows, 1/Rows), the
// standard DLRM initialization.
func NewEmbeddingBag(r *tensor.RNG, rows, dim int, name string) *EmbeddingBag {
	bound := 1.0 / float64(rows)
	return &EmbeddingBag{
		Name:  name,
		Rows:  rows,
		Dim:   dim,
		Table: tensor.RandUniform(r, -bound, bound, rows, dim),
	}
}

// Record leaves on t the record Backward pops, for a caller that pooled the
// bags itself, one PoolBagInto at a time. offsets has one entry per sample
// giving the start of its bag in indices; sample i's bag is
// indices[offsets[i]:offsets[i+1]] (the last bag extends to len(indices)).
func (e *EmbeddingBag) Record(t *Tape, indices, offsets []int32) {
	t.push(record{layer: e, ids: indices, offs: offsets})
}

// PoolBagInto pools the table rows of one bag into dst (length Dim, assumed
// zeroed). An empty bag leaves dst at zero.
func (e *EmbeddingBag) PoolBagInto(dst []float32, bag []int32) {
	for _, idx := range bag {
		if int(idx) < 0 || int(idx) >= e.Rows {
			panic(fmt.Sprintf("nn: embedding %q index %d out of range [0,%d)", e.Name, idx, e.Rows))
		}
		src := e.Table.Row(int(idx))
		for d := 0; d < e.Dim; d++ {
			dst[d] += src[d]
		}
	}
}

// BagBounds returns bag b's [lo, hi) range in a flat list of n indices
// that offsets splits into bags: from its own offset to the next bag's, or
// to n for the last bag. Every reader of the bag layout asks it.
func BagBounds(offsets []int32, b, n int) (lo, hi int) {
	lo, hi = int(offsets[b]), n
	if b+1 < len(offsets) {
		hi = int(offsets[b+1])
	}
	return lo, hi
}

// SparseGrad is a coalesced sparse gradient for an embedding table:
// row Rows[i] receives gradient Grads.Row(i). Rows are sorted ascending.
type SparseGrad struct {
	Rows  []int
	Grads *tensor.Tensor // (len(Rows), dim)
}

// Backward converts the pooled-output gradient dY (numBags, Dim) of the
// recorded bags into a coalesced sparse gradient over table rows
// (PoolBackward).
func (e *EmbeddingBag) Backward(t *Tape, dy *tensor.Tensor) *SparseGrad {
	r := t.pop(e)
	return e.PoolBackward(r.ids, r.offs, dy)
}

// PoolBackward converts a pooled-output gradient over bags of the table's
// rows into a coalesced sparse gradient — the one pooling-backward kernel,
// behind Backward and the SPTT dataflow's step (a) backward — accumulating
// straight into the result's rows. Through the scratch index slot (zero
// again on return) a bag entry finds its row's position in the result: the
// touched rows are marked, collected in ascending order and numbered, and
// then the bags are walked in their original order, so every row's float
// additions run from zero in the order the bags list it. Ascending order
// comes from a scan of slot between the least and greatest marked row, at
// most the table's row count, the only span PoolBackward touches.
func (e *EmbeddingBag) PoolBackward(indices, offsets []int32, dPooled *tensor.Tensor) *SparseGrad {
	if e.slot == nil {
		e.slot = make([]int32, e.Rows)
	}
	slot := e.slot
	b := len(offsets)
	dim := dPooled.Dim(1)
	// Only entries inside some bag count: a leading offset above zero leaves
	// a prefix of indices in no bag.
	used := indices[:0]
	if b > 0 {
		used = indices[offsets[0]:]
	}
	n := 0
	lo, hi := len(slot), -1
	for _, ix := range used {
		if slot[ix] == 0 {
			slot[ix] = 1
			n++
			lo, hi = min(lo, int(ix)), max(hi, int(ix))
		}
	}
	rows := make([]int, 0, n)
	for r := lo; r <= hi; r++ {
		if slot[r] != 0 {
			rows = append(rows, r)
			slot[r] = int32(len(rows))
		}
	}
	grads := tensor.New(len(rows), dim)
	for s := 0; s < b; s++ {
		lo, hi := BagBounds(offsets, s, len(indices))
		g := dPooled.Row(s)
		for _, ix := range indices[lo:hi] {
			row := grads.Row(int(slot[ix]) - 1)[:len(g)]
			for d, gv := range g {
				row[d] += gv
			}
		}
	}
	for _, r := range rows {
		slot[r] = 0
	}
	return &SparseGrad{Rows: rows, Grads: grads}
}

// LookupRows returns the raw (un-pooled) embeddings for a flat index list,
// shape (len(idx), Dim). Used by the Tower Partitioner's interaction probe
// and by the SPTT dataflow, which looks up per-feature embeddings directly.
func (e *EmbeddingBag) LookupRows(idx []int32) *tensor.Tensor {
	out := tensor.New(len(idx), e.Dim)
	for i, ix := range idx {
		copy(out.Row(i), e.Table.Row(int(ix)))
	}
	return out
}

// ParamCount returns the number of scalars in the table.
func (e *EmbeddingBag) ParamCount() int { return e.Rows * e.Dim }
