package models

import (
	"fmt"

	"dmt/internal/data"
	"dmt/internal/nn"
	"dmt/internal/tensor"
	"dmt/internal/towers"
)

// DMTDCNConfig sizes a DMT-transformed DCN: a small CrossNet tower module
// per tower (Listing 2) and a global CrossNet over the compressed features.
type DMTDCNConfig struct {
	Schema data.Schema
	N      int
	Towers [][]int
	// D is the tower output dimension per feature (Listing 2's projection
	// to F·D); D < N compresses the global interaction width.
	D             int
	TMCrossLayers int
	CrossLayers   int // global CrossNet depth
	DeepMLP       []int
	Seed          uint64
}

// DMTDCN is the DMT counterpart of DCN.
type DMTDCN struct {
	cfg   DMTDCNConfig
	Embs  []*nn.EmbeddingBag
	TMs   []*towers.DCNTower
	Cross *nn.CrossNet
	Deep  *nn.MLP

	tape        nn.Tape // Forward's, popped by Backward
	sparseGrads []*nn.SparseGrad
}

// NewDMTDCN builds the model.
func NewDMTDCN(cfg DMTDCNConfig) *DMTDCN {
	if err := checkPartition(cfg.Towers, cfg.Schema.NumSparse()); err != nil {
		panic(err)
	}
	r := tensor.NewRNG(cfg.Seed)
	m := &DMTDCN{cfg: cfg, Embs: newEmbeddings(r, cfg.Schema, cfg.N), tape: nn.Tape{Record: true}}
	for t, feats := range cfg.Towers {
		m.TMs = append(m.TMs, towers.NewDCNTower(r.Split(uint64(10+t)), len(feats), cfg.N, cfg.D,
			cfg.TMCrossLayers, fmt.Sprintf("tm%d", t)))
	}
	d0 := cfg.Schema.NumDense + cfg.Schema.NumSparse()*cfg.D
	m.Cross = nn.NewCrossNet(r.Split(1), d0, cfg.CrossLayers, "cross")
	m.Deep = nn.NewMLP(r.Split(2), d0, append(append([]int(nil), cfg.DeepMLP...), 1), false, "deep")
	return m
}

// Name identifies the model, e.g. "DMT 8T-DCN".
func (m *DMTDCN) Name() string { return fmt.Sprintf("DMT %dT-DCN", len(m.cfg.Towers)) }

// Forward computes logits.
func (m *DMTDCN) Forward(b *data.Batch) *tensor.Tensor {
	m.tape.Reset()
	return m.forward(&m.tape, nil, b, PredictOptions{}).Reshape(b.Size)
}

// forward is the one forward body, behind Forward and Predict: (B, 1)
// logits. sc holds the tower cache's dedupe tables (nil without one).
func (m *DMTDCN) forward(t *nn.Tape, sc *predictScratch, b *data.Batch, opt PredictOptions) *tensor.Tensor {
	x0 := towerInput(t, sc, b.Dense, m.Embs, m.cfg.Towers, m.TMs, b, opt)
	return m.Deep.Forward(t, m.Cross.Forward(t, x0))
}

// Backward propagates logit gradients.
func (m *DMTDCN) Backward(dLogits *tensor.Tensor) {
	b, nd := dLogits.Len(), m.cfg.Schema.NumDense
	dX0 := m.Cross.Backward(&m.tape, m.Deep.Backward(&m.tape, dLogits.Reshape(b, 1)))
	dTowers := tensor.SplitCols(dX0, []int{nd, dX0.Dim(1) - nd})[1]
	m.sparseGrads = towersBackward(&m.tape, m.Embs, m.cfg.Towers, m.TMs, dTowers)
}

// DenseParams returns CrossNet, deep MLP, and tower-module parameters.
func (m *DMTDCN) DenseParams() []*nn.Param {
	ps := nn.CollectParams(m.Cross, m.Deep)
	for _, tm := range m.TMs {
		ps = append(ps, tm.Params()...)
	}
	return ps
}

// Embeddings returns the tables.
func (m *DMTDCN) Embeddings() []*nn.EmbeddingBag { return m.Embs }

// TakeSparseGrads hands over the last backward's sparse gradients.
func (m *DMTDCN) TakeSparseGrads() []*nn.SparseGrad {
	g := m.sparseGrads
	m.sparseGrads = nil
	return g
}

// ParamCount totals parameters. Unlike DLRM's parameter-free dot
// interaction, CrossNet weights scale with the (compressed) input width, so
// tower count shifts parameters between TMs and the over-arch (§5.2.2).
func (m *DMTDCN) ParamCount() int64 {
	dense := nn.CountParams(m.Cross, m.Deep)
	for _, tm := range m.TMs {
		dense += nn.CountParams(tm)
	}
	return int64(dense) + tableParamCount(m.Embs)
}

// FlopsPerSample estimates forward cost: per-tower CrossNets over F_t·N
// plus a global CrossNet over the compressed width — §3.2's hierarchical
// complexity reduction (Table 4: 96.22 → 43.7–87.2 MFlops by tower count).
func (m *DMTDCN) FlopsPerSample() float64 {
	total := 0.0
	for _, feats := range m.cfg.Towers {
		ft := len(feats)
		total += crossNetFlops(ft*m.cfg.N, m.cfg.TMCrossLayers)
		total += linearFlops(ft*m.cfg.N, ft*m.cfg.D)
	}
	d0 := m.cfg.Schema.NumDense + m.cfg.Schema.NumSparse()*m.cfg.D
	total += crossNetFlops(d0, m.cfg.CrossLayers)
	total += mlpFlops(d0, append(append([]int(nil), m.cfg.DeepMLP...), 1))
	return total
}
