package models

import (
	"fmt"

	"dmt/internal/data"
	"dmt/internal/nn"
	"dmt/internal/tensor"
	"dmt/internal/towers"
)

// DMTDLRMConfig sizes a DMT-transformed DLRM: features partitioned into
// towers, a DLRM tower module per tower (Listing 1), and a global
// dot-product interaction over the derived features.
type DMTDLRMConfig struct {
	Schema data.Schema
	N      int     // embedding dimension
	Towers [][]int // feature partition (from TP or a baseline assignment)
	// Tower module parameters (§5.2.2: e.g. c=1, p=0, D=64 for 2–8 towers;
	// p=1, c=0, D=128 for 16 towers).
	C, P, D int
	// BottomMLP must end at D so the dense embedding joins the derived
	// features in the global interaction.
	BottomMLP []int
	TopMLP    []int
	Seed      uint64
}

// DefaultDMTDLRMConfig mirrors DefaultDLRMConfig with c=1, p=0 towers and
// D = N/2 (compression ratio 2, the Table 4/5 default).
func DefaultDMTDLRMConfig(schema data.Schema, towersList [][]int, seed uint64) DMTDLRMConfig {
	return DMTDLRMConfig{
		Schema: schema,
		N:      16,
		Towers: towersList,
		C:      1, P: 0, D: 8,
		BottomMLP: []int{32, 8},
		TopMLP:    []int{64, 32},
		Seed:      seed,
	}
}

// RoundRobinTowers deals nFeatures features across nTowers towers — the
// baseline assignment used when no Tower Partitioner run is available
// (benchmarks, the serving experiments). nTowers must be in [1, nFeatures]
// so every tower is nonempty.
func RoundRobinTowers(nTowers, nFeatures int) [][]int {
	if nTowers < 1 || nTowers > nFeatures {
		panic(fmt.Sprintf("models: %d towers for %d features leaves empty towers", nTowers, nFeatures))
	}
	out := make([][]int, nTowers)
	for f := 0; f < nFeatures; f++ {
		out[f%nTowers] = append(out[f%nTowers], f)
	}
	return out
}

// ServingDMTDLRMConfig is the online-serving configuration: the §5.2.2
// p-ensemble (p=1, c=0), which collapses each tower to a single derived
// feature. That maximizes the compression ratio — the global interaction
// and top MLP shrink with the tower count instead of the feature count —
// so per-sample kernels are small and the forward is dominated by
// per-call fixed costs, exactly the regime micro-batching amortizes.
func ServingDMTDLRMConfig(schema data.Schema, towersList [][]int, seed uint64) DMTDLRMConfig {
	cfg := DefaultDMTDLRMConfig(schema, towersList, seed)
	cfg.C, cfg.P = 0, 1
	return cfg
}

// DMTDLRM is the DMT counterpart of DLRM.
type DMTDLRM struct {
	cfg    DMTDLRMConfig
	Embs   []*nn.EmbeddingBag
	Bottom *nn.MLP
	TMs    []*towers.DLRMTower
	// derived[t] is the number of derived features tower t contributes.
	derived     []int
	Interaction *nn.DotInteraction
	Top         *nn.MLP

	lastBatch   int
	sparseGrads []*nn.SparseGrad
}

// NewDMTDLRM builds the model.
func NewDMTDLRM(cfg DMTDLRMConfig) *DMTDLRM {
	if cfg.BottomMLP[len(cfg.BottomMLP)-1] != cfg.D {
		panic("models: DMT-DLRM bottom MLP must end at the tower output dimension D")
	}
	if err := checkPartition(cfg.Towers, cfg.Schema.NumSparse()); err != nil {
		panic(err)
	}
	r := tensor.NewRNG(cfg.Seed)
	m := &DMTDLRM{
		cfg:         cfg,
		Embs:        newEmbeddings(r, cfg.Schema, cfg.N),
		Bottom:      nn.NewMLP(r.Split(1), cfg.Schema.NumDense, cfg.BottomMLP, true, "bottom"),
		Interaction: &nn.DotInteraction{},
	}
	totalDerived := 0
	for t, feats := range cfg.Towers {
		tm := towers.NewDLRMTower(r.Split(uint64(10+t)), len(feats), cfg.N, cfg.C, cfg.P, cfg.D,
			fmt.Sprintf("tm%d", t))
		m.TMs = append(m.TMs, tm)
		k := cfg.C*len(feats) + cfg.P
		m.derived = append(m.derived, k)
		totalDerived += k
	}
	topIn := cfg.D + m.Interaction.OutDim(totalDerived+1)
	m.Top = nn.NewMLP(r.Split(2), topIn, append(append([]int(nil), cfg.TopMLP...), 1), false, "top")
	return m
}

func checkPartition(towersList [][]int, nFeatures int) error {
	seen := make([]bool, nFeatures)
	for t, g := range towersList {
		if len(g) == 0 {
			return fmt.Errorf("models: tower %d is empty", t)
		}
		for _, f := range g {
			if f < 0 || f >= nFeatures || seen[f] {
				return fmt.Errorf("models: invalid or duplicate feature %d in tower %d", f, t)
			}
			seen[f] = true
		}
	}
	for f, s := range seen {
		if !s {
			return fmt.Errorf("models: feature %d not in any tower", f)
		}
	}
	return nil
}

// Name identifies the model, e.g. "DMT 8T-DLRM".
func (m *DMTDLRM) Name() string { return fmt.Sprintf("DMT %dT-DLRM", len(m.cfg.Towers)) }

// CompressionRatio reports the paper's CR for this configuration.
func (m *DMTDLRM) CompressionRatio() float64 {
	outs := make([]int, len(m.TMs))
	for t, tm := range m.TMs {
		outs[t] = tm.OutDim()
	}
	return towers.CompressionRatio(m.cfg.Schema.NumSparse(), m.cfg.N, outs)
}

// Forward computes logits: embeddings, the tower modules (hierarchical
// interaction level 1: per-tower compression), then the same over-arch a
// distributed rank runs — ForwardDenseFrom(ForwardBottom(dense), towers).
func (m *DMTDLRM) Forward(b *data.Batch) *tensor.Tensor {
	sparse := embedAll(m.Embs, b) // (B, F, N)
	parts := make([]*tensor.Tensor, len(m.cfg.Towers))
	for t, feats := range m.cfg.Towers {
		parts[t] = m.TMs[t].Forward(tensor.SelectFeatures(sparse, feats)) // (B, O_t)
	}
	return m.ForwardDenseFrom(m.ForwardBottom(b.Dense), tensor.Concat(1, parts...))
}

// Backward propagates logit gradients: BackwardTop and BackwardBottom (the
// over-arch, as on a distributed rank), then each tower's share of the
// compressed-output gradient back through its module into the tables.
func (m *DMTDLRM) Backward(dLogits *tensor.Tensor) {
	dCompressed, dDenseEmb := m.BackwardTop(dLogits)
	m.BackwardBottom(dDenseEmb)
	widths := make([]int, len(m.TMs))
	for t, tm := range m.TMs {
		widths[t] = tm.OutDim()
	}
	dSparse := tensor.New(m.lastBatch, m.cfg.Schema.NumSparse(), m.cfg.N)
	for t, dOut := range tensor.SplitCols(dCompressed, widths) {
		tensor.ScatterAddFeatures(dSparse, m.TMs[t].Backward(dOut), m.cfg.Towers[t]) // (B, F_t, N)
	}
	m.sparseGrads = scatterEmbGrads(m.Embs, dSparse)
}

// ForwardDense runs only the dense side of the model: given the raw dense
// features (B, NumDense) and the already-compressed tower outputs
// (B, Σ O_t) — as produced by the distributed SPTT dataflow — it computes
// logits. Together with BackwardDense this is the per-rank replica's share
// of a distributed DMT training step (package distributed).
func (m *DMTDLRM) ForwardDense(dense, compressed *tensor.Tensor) *tensor.Tensor {
	return m.ForwardDenseFrom(m.ForwardBottom(dense), compressed)
}

// ForwardBottom runs only the bottom MLP: (B, NumDense) -> (B, D). It has
// no dependency on the embedding dataflow, which is what lets the
// overlapped distributed schedule run it while the SPTT peer AlltoAll is
// still in flight.
func (m *DMTDLRM) ForwardBottom(dense *tensor.Tensor) *tensor.Tensor {
	return m.Bottom.Forward(dense)
}

// ForwardDenseFrom is ForwardDense with the bottom-MLP activation already
// computed (by ForwardBottom): interaction over the dense embedding and the
// compressed tower outputs, then the top MLP.
func (m *DMTDLRM) ForwardDenseFrom(denseEmb, compressed *tensor.Tensor) *tensor.Tensor {
	b := denseEmb.Dim(0)
	m.lastBatch = b
	d := m.cfg.D
	flat := tensor.Concat(1, denseEmb, compressed)
	x := flat.Reshape(b, flat.Dim(1)/d, d)
	z := m.Interaction.Forward(x)
	top := tensor.Concat(1, denseEmb, z)
	return m.Top.Forward(top).Reshape(b)
}

// BackwardDense reverses ForwardDense: it accumulates bottom/top gradients
// and returns the gradient of the compressed tower outputs (B, Σ O_t),
// which the distributed trainer feeds back through SPTT (where the tower
// modules and embedding tables receive their gradients).
func (m *DMTDLRM) BackwardDense(dLogits *tensor.Tensor) *tensor.Tensor {
	dCompressed, dDenseEmb := m.BackwardTop(dLogits)
	m.BackwardBottom(dDenseEmb)
	return dCompressed
}

// BackwardTop runs the upper share of the dense backward — top MLP and
// interaction. After it returns, every top-MLP gradient is final (the
// overlapped schedule launches their AllReduce buckets here) while
// BottomParams gradients are still pending BackwardBottom. It returns the
// gradient of the compressed tower outputs and of the bottom-MLP output.
func (m *DMTDLRM) BackwardTop(dLogits *tensor.Tensor) (dCompressed, dDenseEmb *tensor.Tensor) {
	b := m.lastBatch
	d := m.cfg.D
	dTop := m.Top.Backward(dLogits.Reshape(b, 1))
	parts := tensor.SplitCols(dTop, []int{d, dTop.Dim(1) - d})
	dDenseDirect, dZ := parts[0], parts[1]
	dX := m.Interaction.Backward(dZ)
	dFlat := dX.Reshape(b, dX.Dim(1)*d)
	blocks := tensor.SplitCols(dFlat, []int{d, dFlat.Dim(1) - d})
	return blocks[1], tensor.Add(blocks[0], dDenseDirect)
}

// BackwardBottom finishes the dense backward through the bottom MLP,
// finalizing the BottomParams gradients.
func (m *DMTDLRM) BackwardBottom(dDenseEmb *tensor.Tensor) {
	m.Bottom.Backward(dDenseEmb)
}

// OverArchParams returns the parameters of the over-arch only (bottom and
// top MLPs, not the tower modules): the set a data-parallel replica
// synchronizes globally, while tower modules synchronize intra-host (§3.2).
// The order is BottomParams followed by the top MLP's; the distributed
// trainer's error-feedback residuals and gradient buckets index into it.
func (m *DMTDLRM) OverArchParams() []*nn.Param { return nn.CollectParams(m.Bottom, m.Top) }

// BottomParams returns the bottom MLP's parameters — the over-arch share
// whose gradients become final only after BackwardBottom.
func (m *DMTDLRM) BottomParams() []*nn.Param { return nn.CollectParams(m.Bottom) }

// DenseParams returns MLP and tower-module parameters.
func (m *DMTDLRM) DenseParams() []*nn.Param {
	ps := nn.CollectParams(m.Bottom, m.Top)
	for _, tm := range m.TMs {
		ps = append(ps, tm.Params()...)
	}
	return ps
}

// Embeddings returns the tables.
func (m *DMTDLRM) Embeddings() []*nn.EmbeddingBag { return m.Embs }

// TakeSparseGrads hands over the last backward's sparse gradients.
func (m *DMTDLRM) TakeSparseGrads() []*nn.SparseGrad {
	g := m.sparseGrads
	m.sparseGrads = nil
	return g
}

// ParamCount totals parameters.
func (m *DMTDLRM) ParamCount() int64 {
	dense := nn.CountParams(m.Bottom, m.Top)
	for _, tm := range m.TMs {
		dense += nn.CountParams(tm)
	}
	return int64(dense) + tableParamCount(m.Embs)
}

// FlopsPerSample estimates forward cost: tower modules plus a global
// interaction over compressed features — the O(|F|²/T² + r²|F|²) structure
// of §3.2 that shrinks DLRM's 14.74 to 8.95 MFlops/sample in Table 4.
func (m *DMTDLRM) FlopsPerSample() float64 {
	total := mlpFlops(m.cfg.Schema.NumDense, m.cfg.BottomMLP)
	kTotal := 1
	for t, feats := range m.cfg.Towers {
		ft := len(feats)
		if m.cfg.P > 0 {
			total += linearFlops(m.cfg.N*ft, m.cfg.P*m.cfg.D)
		}
		if m.cfg.C > 0 {
			total += float64(ft) * linearFlops(m.cfg.N, m.cfg.C*m.cfg.D)
		}
		kTotal += m.derived[t]
	}
	total += float64(kTotal*kTotal) * float64(m.cfg.D)
	topIn := m.cfg.D + m.Interaction.OutDim(kTotal)
	total += mlpFlops(topIn, append(append([]int(nil), m.cfg.TopMLP...), 1))
	return total
}
