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

	tape        nn.Tape // Forward's, popped by Backward
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
		tape:  nn.Tape{Record: true},
	}
}

// Name identifies the model.
func (m *DCN) Name() string { return "DCN" }

// inputDim returns the CrossNet width.
func (m *DCN) inputDim() int { return m.cfg.Schema.NumDense + m.cfg.Schema.NumSparse()*m.cfg.N }

// Forward computes logits for a batch.
func (m *DCN) Forward(b *data.Batch) *tensor.Tensor {
	m.tape.Reset()
	return m.forward(&m.tape, nil, b, PredictOptions{}).Reshape(b.Size)
}

// forward is the one forward body, behind Forward and Predict: (B, 1)
// logits, pooled lookups going through opt's cache when there is one.
func (m *DCN) forward(t *nn.Tape, sc *predictScratch, b *data.Batch, opt PredictOptions) *tensor.Tensor {
	sparse := lookupPooled(t, sc, m.Embs, b, opt.Embeddings) // (B, F, N)
	x0 := t.Concat(1, b.Dense, t.Reshape(sparse, b.Size, -1))
	return m.Deep.Forward(t, m.Cross.Forward(t, x0))
}

// Backward propagates logit gradients. Dense inputs are raw features, with
// no parameters behind them.
func (m *DCN) Backward(dLogits *tensor.Tensor) {
	b := dLogits.Len()
	dX0 := m.Cross.Backward(&m.tape, m.Deep.Backward(&m.tape, dLogits.Reshape(b, 1)))
	m.sparseGrads = make([]*nn.SparseGrad, len(m.Embs))
	lookupBackward(&m.tape, m.Embs, nil, dX0, m.cfg.Schema.NumDense, m.sparseGrads)
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
