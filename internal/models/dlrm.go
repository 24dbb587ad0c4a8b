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

	lastBatch   int
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
	}
}

// Name identifies the model in experiment tables.
func (m *DLRM) Name() string { return "DLRM" }

// Forward computes logits for a batch.
func (m *DLRM) Forward(b *data.Batch) *tensor.Tensor {
	m.lastBatch = b.Size
	denseEmb := m.Bottom.Forward(b.Dense) // (B, N)
	sparse := embedAll(m.Embs, b)         // (B, F, N)
	// Simulated quantized embedding AlltoAll: the dense network sees the
	// rounded values, the backward pass is straight-through.
	sparse = quant.Apply(m.cfg.EmbCommQuant, sparse)
	x := stackDenseSparse(nil, denseEmb, sparse) // (B, F+1, N)
	z := m.Interaction.Forward(x)                // (B, P)
	top := tensor.Concat(1, denseEmb, z)         // (B, N+P)
	logits := m.Top.Forward(top)                 // (B, 1)
	return logits.Reshape(b.Size)
}

// Backward propagates logit gradients to all parameters.
func (m *DLRM) Backward(dLogits *tensor.Tensor) {
	f, n := m.cfg.Schema.NumSparse(), m.cfg.N
	b := m.lastBatch
	dTop := m.Top.Backward(dLogits.Reshape(b, 1)) // (B, N+P)
	parts := tensor.SplitCols(dTop, []int{n, dTop.Dim(1) - n})
	dDenseEmbDirect, dZ := parts[0], parts[1]
	dX := m.Interaction.Backward(dZ) // (B, F+1, N)

	dDenseEmb := tensor.New(b, n)
	dSparse := tensor.New(b, f, n)
	for s := 0; s < b; s++ {
		copy(dDenseEmb.Row(s), dX.Data()[s*(f+1)*n:s*(f+1)*n+n])
		copy(dSparse.Data()[s*f*n:(s+1)*f*n], dX.Data()[s*(f+1)*n+n:(s+1)*(f+1)*n])
	}
	tensor.AddInPlace(dDenseEmb, dDenseEmbDirect)
	m.Bottom.Backward(dDenseEmb)
	m.sparseGrads = scatterEmbGrads(m.Embs, dSparse)
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
	interaction := float64((f+1)*(f+1)) * float64(n) // pairwise dots
	topIn := n + di.OutDim(f+1)
	return mlpFlops(m.cfg.Schema.NumDense, m.cfg.BottomMLP) +
		interaction +
		mlpFlops(topIn, append(append([]int(nil), m.cfg.TopMLP...), 1))
}
