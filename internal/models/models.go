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
)

// Model is what the trainer drives: forward to logits, backward from logit
// gradients, dense parameters for Adam, embedding tables plus their sparse
// gradients for SparseAdam.
type Model interface {
	Name() string
	// Forward maps a batch to logits of shape (B).
	Forward(b *data.Batch) *tensor.Tensor
	// Backward consumes dLoss/dLogits (B), accumulating dense parameter
	// gradients and stashing per-table sparse gradients.
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

// newEmbeddings builds one table per sparse feature of the schema. Multi-hot
// features pool by sum (partial sums compose across row shards, §3.1.3);
// single-hot pooling mode is irrelevant and also sum.
func newEmbeddings(r *tensor.RNG, schema data.Schema, n int) []*nn.EmbeddingBag {
	embs := make([]*nn.EmbeddingBag, schema.NumSparse())
	for f := range embs {
		embs[f] = nn.NewEmbeddingBag(r.Split(uint64(f)+100), schema.Cardinalities[f], n,
			nn.PoolSum, fmt.Sprintf("emb%d", f))
	}
	return embs
}

// embedAll runs every feature's lookup for a batch, returning (B, F, N).
// Each table caches its inputs, so a following Backward is valid.
func embedAll(embs []*nn.EmbeddingBag, b *data.Batch) *tensor.Tensor {
	f := len(embs)
	n := embs[0].Dim
	out := tensor.New(b.Size, f, n)
	for fi, e := range embs {
		pooled := e.Forward(b.Indices[fi], b.Offsets[fi]) // (B, N)
		for s := 0; s < b.Size; s++ {
			copy(out.Data()[(s*f+fi)*n:(s*f+fi+1)*n], pooled.Row(s))
		}
	}
	return out
}

// scatterEmbGrads converts a (B, F, N) embedding gradient into per-table
// sparse gradients via each table's cached inputs.
func scatterEmbGrads(embs []*nn.EmbeddingBag, dEmb *tensor.Tensor) []*nn.SparseGrad {
	b, f, n := dEmb.Dim(0), dEmb.Dim(1), dEmb.Dim(2)
	grads := make([]*nn.SparseGrad, f)
	for fi, e := range embs {
		dPooled := tensor.New(b, n)
		for s := 0; s < b; s++ {
			copy(dPooled.Row(s), dEmb.Data()[(s*f+fi)*n:(s*f+fi+1)*n])
		}
		grads[fi] = e.Backward(dPooled)
	}
	return grads
}

// stackDenseSparse interleaves the dense embedding (B, N) ahead of the
// sparse embeddings (B, F, N) into the (B, F+1, N) interaction input, taken
// from the arena a (the heap for the training path's nil).
func stackDenseSparse(a *tensor.Arena, denseEmb, sparse *tensor.Tensor) *tensor.Tensor {
	b, f, n := sparse.Dim(0), sparse.Dim(1), sparse.Dim(2)
	x := a.New(b, f+1, n)
	for s := 0; s < b; s++ {
		copy(x.Data()[s*(f+1)*n:s*(f+1)*n+n], denseEmb.Row(s))
		copy(x.Data()[s*(f+1)*n+n:(s+1)*(f+1)*n], sparse.Data()[s*f*n:(s+1)*f*n])
	}
	return x
}

func tableParamCount(embs []*nn.EmbeddingBag) int64 {
	var total int64
	for _, e := range embs {
		total += int64(e.ParamCount())
	}
	return total
}

// linearFlops is 2·in·out multiply-accumulates.
func linearFlops(in, out int) float64 { return 2 * float64(in) * float64(out) }

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
	return float64(layers) * (2*float64(dim)*float64(dim) + 3*float64(dim))
}
