// Package models wires the substrates into the paper's models: DLRM
// (dot-product interaction) and DCN (CrossNet interaction) baselines, and
// their DMT counterparts in which features are partitioned into towers,
// tower modules compress each tower's embeddings, and a global interaction
// operates on the compressed representations (hierarchical feature
// interaction, §3.2).
//
// Models here are the single-process, math-equivalent form used for the
// quality experiments (Tables 2–6); the towers package tests prove the
// distributed SPTT dataflow computes exactly the same function.
package models

import (
	"fmt"

	"dmt/internal/data"
	"dmt/internal/nn"
	"dmt/internal/tensor"
	"dmt/internal/towers"
)

// Model is what the trainer drives: forward to logits, backward from logit
// gradients, dense parameters for Adam, embedding tables plus their sparse
// gradients for SparseAdam.
//
// Forward and Predict run the model's one forward body: Forward on the tape
// the model owns, recording what Backward needs, and Predict on a pooled
// tape that records nothing.
type Model interface {
	Predictor
	// Forward maps a batch to logits of shape (B), recording the pass on
	// the model's tape; it starts a new pass, so a Forward with no Backward
	// leaves nothing behind.
	Forward(b *data.Batch) *tensor.Tensor
	// Backward consumes dLoss/dLogits (B) of the last Forward, accumulating
	// dense parameter gradients and stashing per-table sparse gradients.
	Backward(dLogits *tensor.Tensor)
	// DenseParams returns all dense trainable parameters.
	DenseParams() []*nn.Param
	// Embeddings returns the embedding tables, aligned with TakeSparseGrads.
	Embeddings() []*nn.EmbeddingBag
	// TakeSparseGrads returns the sparse gradients produced by the last
	// Backward (aligned with Embeddings) and clears the stash.
	TakeSparseGrads() []*nn.SparseGrad
	// ParamCount returns the total scalar parameter count (dense + tables).
	ParamCount() int64
	// FlopsPerSample estimates forward multiply-accumulate flops per sample
	// (the MFlops/sample columns of Tables 3–4).
	FlopsPerSample() float64
}

// newEmbeddings builds one table per sparse feature of the schema.
func newEmbeddings(r *tensor.RNG, schema data.Schema, n int) []*nn.EmbeddingBag {
	embs := make([]*nn.EmbeddingBag, schema.NumSparse())
	for f := range embs {
		embs[f] = nn.NewEmbeddingBag(r.Split(uint64(f)+100), schema.Cardinalities[f], n,
			fmt.Sprintf("emb%d", f))
	}
	return embs
}

// shareEmbeddings returns embs, the tables of a model built for the same
// schema and n, after making the draws from r that newEmbeddings would have
// made, so every later Split of r yields what it would have yielded.
func shareEmbeddings(r *tensor.RNG, schema data.Schema, n int, embs []*nn.EmbeddingBag) []*nn.EmbeddingBag {
	if len(embs) != schema.NumSparse() {
		panic(fmt.Sprintf("models: %d shared tables for %d sparse features", len(embs), schema.NumSparse()))
	}
	for f, e := range embs {
		if e.Rows != schema.Cardinalities[f] || e.Dim != n {
			panic(fmt.Sprintf("models: shared table %d is %dx%d, want %dx%d", f, e.Rows, e.Dim, schema.Cardinalities[f], n))
		}
		r.Split(uint64(f) + 100)
	}
	return embs
}

// lookupPooled pools every feature's bags for a batch into (B, F, N) from
// t's arena, feature by feature, through the cache when there is one (sc
// is Predict's scratch, nil for training, which passes no cache), and
// records each table's lookup on t.
func lookupPooled(t *nn.Tape, sc *predictScratch, embs []*nn.EmbeddingBag, b *data.Batch, cache VecCache) *tensor.Tensor {
	out := t.New(b.Size, len(embs), embs[0].Dim)
	poolBags(sc, bagRows{embs: embs, b: b, rows: b.Size, byFeature: true, out: out.Data()}, cache)
	for fi, e := range embs {
		e.Record(t, b.Indices[fi], b.Offsets[fi])
	}
	return out
}

// lookupBackward pops the lookups of feats (all tables when nil), recorded
// in that order, off t into grads. Feature feats[k]'s pooled gradient is
// columns [col+k·N, col+(k+1)·N) of d's rows.
func lookupBackward(t *nn.Tape, embs []*nn.EmbeddingBag, feats []int, d *tensor.Tensor, col int, grads []*nn.SparseGrad) {
	nf := len(feats)
	if feats == nil {
		nf = len(embs)
	}
	b, n := d.Dim(0), embs[0].Dim
	w := d.Len() / b
	for k := nf - 1; k >= 0; k-- {
		f := k
		if feats != nil {
			f = feats[k]
		}
		dPooled := tensor.New(b, n)
		for s := 0; s < b; s++ {
			copy(dPooled.Row(s), d.Data()[s*w+col+k*n:][:n])
		}
		grads[f] = embs[f].Backward(t, dPooled)
	}
}

// towersBackward pops what towerInput recorded off t, the last tower first
// and each module before its lookups, given the gradient of the tower
// outputs (B, Σ O_t), and returns the tables' sparse gradients.
func towersBackward[TM towers.Module](t *nn.Tape, embs []*nn.EmbeddingBag, towerFeats [][]int, tms []TM, dOut *tensor.Tensor) []*nn.SparseGrad {
	widths := make([]int, len(tms))
	for tw, tm := range tms {
		widths[tw] = tm.OutDim()
	}
	blocks := tensor.SplitCols(dOut, widths)
	grads := make([]*nn.SparseGrad, len(embs))
	for tw := len(tms) - 1; tw >= 0; tw-- {
		dSel := tms[tw].BackwardOn(t, blocks[tw]) // (B, F_t, N)
		lookupBackward(t, embs, towerFeats[tw], dSel.Reshape(dSel.Dim(0), -1), 0, grads)
	}
	return grads
}

// dotOverArch is DLRM's and DMT-DLRM's over-arch, the dot interaction and
// the top MLP: flat is the dense embedding (B, D) followed by the other D-wide
// vectors, (B, K·D), and the top MLP reads the dense embedding beside the
// K vectors' pairs, which the interaction writes in place into its input.
// It returns the (B, 1) logits.
func dotOverArch(t *nn.Tape, di *nn.DotInteraction, top *nn.MLP, denseEmb, flat *tensor.Tensor) *tensor.Tensor {
	b, d := flat.Dim(0), denseEmb.Dim(1)
	x := t.Reshape(flat, b, flat.Dim(1)/d, d)
	in := t.New(b, d+di.OutDim(x.Dim(1)))
	w := in.Dim(1)
	for r := range b {
		copy(in.Data()[r*w:r*w+d], denseEmb.Row(r))
	}
	di.ForwardInto(t, in, d, x)
	return top.Forward(t, in)
}

func tableParamCount(embs []*nn.EmbeddingBag) int64 {
	var total int64
	for _, e := range embs {
		total += int64(e.ParamCount())
	}
	return total
}

// linearFlops is 2·in·out multiply-accumulates. The flop counts multiply
// in int, so no float product can fuse into a caller's sum (make fma-check).
func linearFlops(in, out int) float64 { return float64(2 * in * out) }

func mlpFlops(in int, sizes []int) float64 {
	total := 0.0
	prev := in
	for _, s := range sizes {
		total += linearFlops(prev, s)
		prev = s
	}
	return total
}

func crossNetFlops(dim, layers int) float64 {
	// Per layer: a (dim×dim) matvec plus elementwise ops.
	return float64(layers * (2*dim*dim + 3*dim))
}
