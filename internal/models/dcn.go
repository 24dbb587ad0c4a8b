package models

import (
	"dmt/internal/data"
	"dmt/internal/nn"
	"dmt/internal/tensor"
)

// DCNConfig sizes a DCN-v2 baseline (Wang et al. 2021).
type DCNConfig struct {
	Schema      data.Schema
	N           int
	CrossLayers int
	// DeepMLP follows the cross network; a final width-1 layer is appended.
	DeepMLP []int
	Seed    uint64
}

// DCN concatenates dense features with all sparse embeddings and applies a
// CrossNet followed by a deep MLP (stacked structure).
type DCN struct {
	cfg   DCNConfig
	Embs  []*nn.EmbeddingBag
	Cross *nn.CrossNet
	Deep  *nn.MLP

	lastBatch   int
	sparseGrads []*nn.SparseGrad
}

// NewDCN builds the model.
func NewDCN(cfg DCNConfig) *DCN {
	r := tensor.NewRNG(cfg.Seed)
	d0 := cfg.Schema.NumDense + cfg.Schema.NumSparse()*cfg.N
	return &DCN{
		cfg:   cfg,
		Embs:  newEmbeddings(r, cfg.Schema, cfg.N),
		Cross: nn.NewCrossNet(r.Split(1), d0, cfg.CrossLayers, "cross"),
		Deep:  nn.NewMLP(r.Split(2), d0, append(append([]int(nil), cfg.DeepMLP...), 1), false, "deep"),
	}
}

// Name identifies the model.
func (m *DCN) Name() string { return "DCN" }

// inputDim returns the CrossNet width.
func (m *DCN) inputDim() int { return m.cfg.Schema.NumDense + m.cfg.Schema.NumSparse()*m.cfg.N }

// Forward computes logits for a batch.
func (m *DCN) Forward(b *data.Batch) *tensor.Tensor {
	m.lastBatch = b.Size
	sparse := embedAll(m.Embs, b) // (B, F, N)
	x0 := tensor.Concat(1, b.Dense, sparse.Reshape(b.Size, -1))
	c := m.Cross.Forward(x0)
	logits := m.Deep.Forward(c)
	return logits.Reshape(b.Size)
}

// Backward propagates logit gradients.
func (m *DCN) Backward(dLogits *tensor.Tensor) {
	b := m.lastBatch
	dC := m.Deep.Backward(dLogits.Reshape(b, 1))
	dX0 := m.Cross.Backward(dC)
	parts := tensor.SplitCols(dX0, []int{m.cfg.Schema.NumDense, m.cfg.Schema.NumSparse() * m.cfg.N})
	// Dense inputs are raw features: no parameters behind them.
	dSparse := parts[1].Reshape(b, m.cfg.Schema.NumSparse(), m.cfg.N)
	m.sparseGrads = scatterEmbGrads(m.Embs, dSparse)
}

// DenseParams returns CrossNet and deep MLP parameters.
func (m *DCN) DenseParams() []*nn.Param { return nn.CollectParams(m.Cross, m.Deep) }

// Embeddings returns the tables.
func (m *DCN) Embeddings() []*nn.EmbeddingBag { return m.Embs }

// TakeSparseGrads hands over the last backward's sparse gradients.
func (m *DCN) TakeSparseGrads() []*nn.SparseGrad {
	g := m.sparseGrads
	m.sparseGrads = nil
	return g
}

// ParamCount totals parameters.
func (m *DCN) ParamCount() int64 {
	return int64(nn.CountParams(m.Cross, m.Deep)) + tableParamCount(m.Embs)
}

// FlopsPerSample estimates the forward cost; CrossNet dominates, which is
// why DCN is more compute-bound than DLRM (§5.3.1).
func (m *DCN) FlopsPerSample() float64 {
	d0 := m.inputDim()
	return crossNetFlops(d0, m.cfg.CrossLayers) +
		mlpFlops(d0, append(append([]int(nil), m.cfg.DeepMLP...), 1))
}
