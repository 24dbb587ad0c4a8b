package models

import (
	"dmt/internal/data"
	"dmt/internal/nn"
	"dmt/internal/quant"
	"dmt/internal/tensor"
)

// DLRMConfig sizes a DLRM baseline (Naumov et al. 2019).
type DLRMConfig struct {
	Schema data.Schema
	// N is the embedding dimension (the paper's baselines use 128; the
	// reproduction defaults are smaller for in-process speed).
	N int
	// BottomMLP maps the dense features to the embedding space; its last
	// width must equal N.
	BottomMLP []int
	// TopMLP maps the interaction output to the logit; a final width-1
	// layer is appended automatically.
	TopMLP []int
	// EmbCommQuant simulates quantized embedding communication (§5.1's
	// quantized collectives, §6's FP8 discussion): looked-up embeddings are
	// rounded to the scheme's precision before entering the dense network,
	// with straight-through gradients.
	EmbCommQuant quant.Scheme
	Seed         uint64
}

// DefaultDLRMConfig returns the reproduction's standard small DLRM.
func DefaultDLRMConfig(schema data.Schema, seed uint64) DLRMConfig {
	return DLRMConfig{
		Schema:    schema,
		N:         16,
		BottomMLP: []int{32, 16},
		TopMLP:    []int{64, 32},
		Seed:      seed,
	}
}

// DLRM is the dot-product interaction baseline: bottom MLP embeds dense
// features, sparse features are looked up, all (F+1) vectors interact
// pairwise, and the top MLP emits a logit.
type DLRM struct {
	cfg         DLRMConfig
	Embs        []*nn.EmbeddingBag
	Bottom      *nn.MLP
	Interaction *nn.DotInteraction
	Top         *nn.MLP

	tape        nn.Tape // Forward's, popped by Backward
	sparseGrads []*nn.SparseGrad
}

// NewDLRM builds the model.
func NewDLRM(cfg DLRMConfig) *DLRM {
	if cfg.BottomMLP[len(cfg.BottomMLP)-1] != cfg.N {
		panic("models: DLRM bottom MLP must end at the embedding dimension")
	}
	r := tensor.NewRNG(cfg.Seed)
	f := cfg.Schema.NumSparse()
	di := &nn.DotInteraction{}
	topIn := cfg.N + di.OutDim(f+1)
	return &DLRM{
		cfg:         cfg,
		Embs:        newEmbeddings(r, cfg.Schema, cfg.N),
		Bottom:      nn.NewMLP(r.Split(1), cfg.Schema.NumDense, cfg.BottomMLP, true, "bottom"),
		Interaction: di,
		Top:         nn.NewMLP(r.Split(2), topIn, append(append([]int(nil), cfg.TopMLP...), 1), false, "top"),
		tape:        nn.Tape{Record: true},
	}
}

// Name identifies the model in experiment tables.
func (m *DLRM) Name() string { return "DLRM" }

// Forward computes logits for a batch.
func (m *DLRM) Forward(b *data.Batch) *tensor.Tensor {
	m.tape.Reset()
	return m.forward(&m.tape, nil, b, PredictOptions{}).Reshape(b.Size)
}

// forward is the one forward body, behind Forward and Predict: (B, 1)
// logits, pooled lookups going through opt's cache when there is one.
func (m *DLRM) forward(t *nn.Tape, sc *predictScratch, b *data.Batch, opt PredictOptions) *tensor.Tensor {
	sparse := lookupPooled(t, sc, m.Embs, b, opt.Embeddings) // (B, F, N)
	// Simulated quantized embedding AlltoAll: the dense network sees the
	// rounded values, the backward pass is straight-through.
	sparse = quant.Apply(m.cfg.EmbCommQuant, sparse)
	denseEmb := m.Bottom.Forward(t, b.Dense)                     // (B, N)
	flat := t.Concat(1, denseEmb, t.Reshape(sparse, b.Size, -1)) // (B, (F+1)·N)
	return dotOverArch(t, m.Interaction, m.Top, denseEmb, flat)
}

// Backward propagates logit gradients to all parameters.
func (m *DLRM) Backward(dLogits *tensor.Tensor) {
	t, b, n := &m.tape, dLogits.Len(), m.cfg.N
	dTop := m.Top.Backward(t, t.Reshape(dLogits, b, 1))            // (B, N + pairs)
	dX := t.Reshape(m.Interaction.BackwardFrom(t, dTop, n), b, -1) // (B, (F+1)·N)
	dDenseEmb := tensor.New(b, n)
	dst, top, flat := dDenseEmb.Data(), dTop.Data(), dX.Data()
	tw, fw := dTop.Dim(1), dX.Dim(1)
	for r := range b {
		for j := range n {
			dst[r*n+j] = flat[r*fw+j] + top[r*tw+j]
		}
	}
	m.Bottom.Backward(t, dDenseEmb)
	m.sparseGrads = make([]*nn.SparseGrad, len(m.Embs))
	lookupBackward(t, m.Embs, nil, dX, n, m.sparseGrads)
}

// DenseParams returns the MLP parameters.
func (m *DLRM) DenseParams() []*nn.Param { return nn.CollectParams(m.Bottom, m.Top) }

// Embeddings returns the tables.
func (m *DLRM) Embeddings() []*nn.EmbeddingBag { return m.Embs }

// TakeSparseGrads hands over and clears the last backward's sparse grads.
func (m *DLRM) TakeSparseGrads() []*nn.SparseGrad {
	g := m.sparseGrads
	m.sparseGrads = nil
	return g
}

// ParamCount totals dense and embedding parameters.
func (m *DLRM) ParamCount() int64 {
	return int64(nn.CountParams(m.Bottom, m.Top)) + tableParamCount(m.Embs)
}

// FlopsPerSample estimates the forward cost per sample.
func (m *DLRM) FlopsPerSample() float64 {
	f, n := m.cfg.Schema.NumSparse(), m.cfg.N
	di := &nn.DotInteraction{}
	interaction := float64((f + 1) * (f + 1) * n) // pairwise dots
	topIn := n + di.OutDim(f+1)
	return mlpFlops(m.cfg.Schema.NumDense, m.cfg.BottomMLP) +
		interaction +
		mlpFlops(topIn, append(append([]int(nil), m.cfg.TopMLP...), 1))
}
