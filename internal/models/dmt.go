package models

import (
	"fmt"
	"slices"

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
// (benchmarks, the serving experiments) and Table 6's naive strided
// baseline: tower t gets features {t, t+T, t+2T, …}, so 8 towers over 26
// features give [[0 8 16 24] [1 9 17 25] [2 10 18] …], the paper's example.
// nTowers must be in [1, nFeatures] so every tower is nonempty.
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

	// tape is the training pass's, staged calls included. It takes its
	// tensors from arena, reset at the pass's start (Forward,
	// ForwardBottom), so a steady-state pass takes nothing from the heap;
	// from ForwardDenseFrom to BackwardTop it takes them from lent, an
	// arena of tensor.Scratch. That pass waits on nothing, so the arena goes
	// back as soon as it ends and the next rank's pass reuses it. It is the
	// bulk of a step's dense tensors (at the train_dense benchmark's shape
	// ≈ 400 KB of a rank's ≈ 500 KB), and every byte an arena keeps is live
	// heap, which the collector's pacing doubles in RSS.
	tape        nn.Tape
	arena, lent *tensor.Arena
	sparseGrads []*nn.SparseGrad

	// The parameter lists, built once by NewDMTDLRMSharing.
	overArchPs, bottomPs, densePs []*nn.Param
}

// NewDMTDLRM builds the model.
func NewDMTDLRM(cfg DMTDLRMConfig) *DMTDLRM { return NewDMTDLRMSharing(cfg, nil) }

// NewDMTDLRMSharing builds the model over embs, the tables of another model
// built for the same schema and N, instead of seeding its own (nil embs
// seeds them, as NewDMTDLRM does). Its dense parameters are bit for bit
// NewDMTDLRM(cfg)'s either way. The distributed trainer's replicas share
// one table set this way.
func NewDMTDLRMSharing(cfg DMTDLRMConfig, embs []*nn.EmbeddingBag) *DMTDLRM {
	if cfg.BottomMLP[len(cfg.BottomMLP)-1] != cfg.D {
		panic("models: DMT-DLRM bottom MLP must end at the tower output dimension D")
	}
	if err := checkPartition(cfg.Towers, cfg.Schema.NumSparse()); err != nil {
		panic(err)
	}
	r := tensor.NewRNG(cfg.Seed)
	if embs == nil {
		embs = newEmbeddings(r, cfg.Schema, cfg.N)
	} else {
		embs = shareEmbeddings(r, cfg.Schema, cfg.N, embs)
	}
	m := &DMTDLRM{
		cfg:         cfg,
		Embs:        embs,
		Bottom:      nn.NewMLP(r.Split(1), cfg.Schema.NumDense, cfg.BottomMLP, true, "bottom"),
		Interaction: &nn.DotInteraction{},
		arena:       new(tensor.Arena),
	}
	m.tape = nn.Tape{Arena: m.arena, Record: true}
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
	m.bottomPs = m.Bottom.Params()
	m.overArchPs = nn.CollectParams(m.Bottom, m.Top)
	m.densePs = slices.Clone(m.overArchPs)
	for _, tm := range m.TMs {
		m.densePs = append(m.densePs, tm.Params()...)
	}
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

// Forward computes logits: the bottom MLP, the embeddings and tower
// modules (hierarchical interaction level 1: per-tower compression), then
// the over-arch a distributed rank runs in ForwardDenseFrom. The logits
// live in the model's training arena: valid until the next Forward or
// ForwardBottom.
//
//dmt:transient-result
func (m *DMTDLRM) Forward(b *data.Batch) *tensor.Tensor {
	m.startPass()
	return m.tape.Reshape(m.forward(&m.tape, nil, b, PredictOptions{}), b.Size)
}

// forward is the one forward body, behind Forward and Predict: (B, 1)
// logits. sc holds the tower cache's dedupe tables (nil without one).
func (m *DMTDLRM) forward(t *nn.Tape, sc *predictScratch, b *data.Batch, opt PredictOptions) *tensor.Tensor {
	denseEmb := m.Bottom.Forward(t, b.Dense)
	flat := towerInput(t, sc, denseEmb, m.Embs, m.cfg.Towers, m.TMs, b, opt)
	return dotOverArch(t, m.Interaction, m.Top, denseEmb, flat)
}

// Backward propagates logit gradients: BackwardTop (the over-arch, as on a
// distributed rank), each tower's share of the compressed-output gradient
// back through its module into the tables, then BackwardBottom.
func (m *DMTDLRM) Backward(dLogits *tensor.Tensor) {
	dCompressed, dDenseEmb := m.BackwardTop(dLogits)
	m.sparseGrads = towersBackward(&m.tape, m.Embs, m.cfg.Towers, m.TMs, dCompressed)
	m.BackwardBottom(dDenseEmb)
}

// ForwardDense runs only the dense side of the model: given the raw dense
// features (B, NumDense) and the already-compressed tower outputs
// (B, Σ O_t) — as produced by the distributed SPTT dataflow — it computes
// logits. Together with BackwardDense this is the per-rank replica's share
// of a distributed DMT training step (package distributed). It starts a
// pass, as ForwardBottom does; the logits are valid until BackwardTop.
//
//dmt:transient-result
func (m *DMTDLRM) ForwardDense(dense, compressed *tensor.Tensor) *tensor.Tensor {
	return m.ForwardDenseFrom(m.ForwardBottom(dense), compressed)
}

// ForwardBottom runs only the bottom MLP: (B, NumDense) -> (B, D). It has
// no dependency on the embedding dataflow, which is what lets the
// overlapped distributed schedule run it while the SPTT peer AlltoAll is
// still in flight.
//
// ForwardBottom starts a pass, the rank's step: it resets the model's
// training arena. The staged calls' results live in the model's arenas:
// ForwardBottom's and BackwardTop's dense-embedding gradient until the next
// ForwardBottom or Forward, and ForwardDenseFrom's and ForwardDense's
// logits until BackwardTop; a caller must not keep one past that.
// BackwardTop's compressed-output gradient is the caller's.
//
//dmt:transient-result
func (m *DMTDLRM) ForwardBottom(dense *tensor.Tensor) *tensor.Tensor {
	m.startPass()
	return m.Bottom.Forward(&m.tape, dense)
}

// startPass starts a pass on the model's own arena, handing back an
// over-arch arena a pass left open.
func (m *DMTDLRM) startPass() {
	m.endOverArch()
	m.tape.Reset()
}

// endOverArch hands the lent over-arch arena back, if one is lent, and puts
// the tape back on the model's own arena.
func (m *DMTDLRM) endOverArch() {
	if m.lent != nil {
		m.tape.Arena = m.arena
		tensor.Scratch.Put(m.lent)
		m.lent = nil
	}
}

// ForwardDenseFrom is ForwardDense with the bottom-MLP activation already
// computed (by ForwardBottom, which started the pass): interaction over the
// dense embedding and the compressed tower outputs, then the top MLP. Its
// tensors come from an arena lent until BackwardTop; the (B) logits are
// valid until then.
//
//dmt:transient-result
func (m *DMTDLRM) ForwardDenseFrom(denseEmb, compressed *tensor.Tensor) *tensor.Tensor {
	if m.lent == nil {
		m.lent = tensor.Scratch.Get()
		m.tape.Arena = m.lent
	}
	t := &m.tape
	return t.Reshape(dotOverArch(t, m.Interaction, m.Top, denseEmb, t.Concat(1, denseEmb, compressed)), denseEmb.Dim(0))
}

// BackwardDense reverses ForwardDense: it accumulates bottom/top gradients
// and returns the gradient of the compressed tower outputs (B, Σ O_t),
// which the distributed trainer feeds back through SPTT (where the tower
// modules and embedding tables receive their gradients). The gradient is
// the caller's, as BackwardTop's is; it carries BackwardTop's directive,
// whose results it passes on.
//
//dmt:transient-result
func (m *DMTDLRM) BackwardDense(dLogits *tensor.Tensor) *tensor.Tensor {
	dCompressed, dDenseEmb := m.BackwardTop(dLogits)
	m.BackwardBottom(dDenseEmb)
	return dCompressed
}

// BackwardTop runs the upper share of the dense backward — top MLP and
// interaction. After it returns, every top-MLP gradient is final (the
// overlapped schedule launches their AllReduce buckets here) while
// BottomParams gradients are still pending BackwardBottom. It returns the
// gradient of the compressed tower outputs, the caller's, and of the
// bottom-MLP output, valid until the next ForwardBottom. The interaction
// reads its columns of the top MLP's input gradient in place, and the
// dense embedding's two gradient paths are summed straight out of both
// gradients' column blocks into the model's own arena, after which the
// over-arch pass's arena goes back.
//
//dmt:transient-result
func (m *DMTDLRM) BackwardTop(dLogits *tensor.Tensor) (dCompressed, dDenseEmb *tensor.Tensor) {
	t := &m.tape
	b, d := dLogits.Len(), m.cfg.D
	dTop := m.Top.Backward(t, t.Reshape(dLogits, b, 1)) // (B, D + pairs)
	dX := m.Interaction.BackwardFrom(t, dTop, d)        // (B, K, D)
	fw := dX.Dim(1) * d
	// The dataflow re-lays dCompressed into its per-tower blocks at once,
	// so it is the heap's, and the arena does not keep it between steps.
	dDenseEmb, dCompressed = m.arena.New(b, d), tensor.New(b, fw-d)
	tw := dTop.Dim(1)
	dst, top, flat := dDenseEmb.Data(), dTop.Data(), dX.Data()
	for r := range b {
		for j := range d {
			dst[r*d+j] = flat[r*fw+j] + top[r*tw+j]
		}
		copy(dCompressed.Row(r), flat[r*fw+d:(r+1)*fw])
	}
	m.endOverArch()
	return dCompressed, dDenseEmb
}

// BackwardBottom finishes the dense backward through the bottom MLP,
// finalizing the BottomParams gradients.
func (m *DMTDLRM) BackwardBottom(dDenseEmb *tensor.Tensor) {
	m.Bottom.Backward(&m.tape, dDenseEmb)
}

// OverArchParams returns the parameters of the over-arch only (bottom and
// top MLPs, not the tower modules): the set a data-parallel replica
// synchronizes globally, while tower modules synchronize intra-host (§3.2).
// The order is BottomParams followed by the top MLP's; the distributed
// trainer's error-feedback residuals and gradient buckets index into it.
// The list is built once and shared by every call: read-only.
func (m *DMTDLRM) OverArchParams() []*nn.Param { return m.overArchPs }

// BottomParams returns the bottom MLP's parameters — the over-arch share
// whose gradients become final only after BackwardBottom. The list is
// built once and shared by every call: read-only.
func (m *DMTDLRM) BottomParams() []*nn.Param { return m.bottomPs }

// DenseParams returns MLP and tower-module parameters. The list is built
// once and shared by every call: read-only.
func (m *DMTDLRM) DenseParams() []*nn.Param { return m.densePs }

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
			total += linearFlops(ft*m.cfg.N, m.cfg.C*m.cfg.D) // ft projections of N
		}
		kTotal += m.derived[t]
	}
	total += float64(kTotal * kTotal * m.cfg.D)
	topIn := m.cfg.D + m.Interaction.OutDim(kTotal)
	total += mlpFlops(topIn, append(append([]int(nil), m.cfg.TopMLP...), 1))
	return total
}
