// Package towers implements the paper's Tower Modules (§3.2, §4): dense
// modules attached to each tower between SPTT steps (e) and (f) that
// compress the tower's embeddings before cross-host exchange and introduce
// the intra-tower level of hierarchical feature interaction.
//
// Two concrete architectures follow the paper's listings:
//
//   - DLRMTower (Listing 1): an ensemble of a flattened linear projection
//     (p·D outputs) and a per-feature projection (c·D outputs per feature),
//     concatenated — operators lifted from the DLRM over-arch.
//   - DCNTower (Listing 2): a small CrossNet over the flattened tower
//     embeddings followed by a linear to F·D outputs — the DCN interaction
//     module in miniature.
//
// Every module implements sptt.TowerModule, so it can run replicated inside
// the distributed dataflow (replicas per host GPU, gradients AllReduced
// intra-host) or standalone in the single-process trainer.
package towers

import (
	"fmt"

	"dmt/internal/nn"
	"dmt/internal/sptt"
	"dmt/internal/tensor"
)

// DLRMTower is Listing 1: cat[ linear(N·F → p·D)(flatten(x)),
// linear(N → c·D) applied per feature ]. Output width D·(c·F + p).
type DLRMTower struct {
	F, N, C, P, D int
	// Flat is the p·D-wide projection of the flattened tower embeddings
	// (nil when P == 0); PerFeature is the c·D-wide per-feature projection
	// (nil when C == 0).
	Flat       *nn.Linear
	PerFeature *nn.Linear

	lastS int
}

// NewDLRMTower builds the module for a tower of f features with embedding
// dim n. At least one of c, p must be positive.
func NewDLRMTower(r *tensor.RNG, f, n, c, p, d int, name string) *DLRMTower {
	if c < 0 || p < 0 || c+p == 0 || d <= 0 {
		panic(fmt.Sprintf("towers: invalid DLRM tower c=%d p=%d D=%d", c, p, d))
	}
	t := &DLRMTower{F: f, N: n, C: c, P: p, D: d}
	if p > 0 {
		t.Flat = nn.NewLinear(r, n*f, p*d, name+".flat")
	}
	if c > 0 {
		t.PerFeature = nn.NewLinear(r, n, c*d, name+".perfeat")
	}
	return t
}

// OutDim returns O = D·(c·F + p).
func (t *DLRMTower) OutDim() int { return t.D * (t.C*t.F + t.P) }

// Forward maps (S, F, N) to (S, OutDim).
func (t *DLRMTower) Forward(x *tensor.Tensor) *tensor.Tensor {
	if x.Rank() != 3 || x.Dim(1) != t.F || x.Dim(2) != t.N {
		panic(fmt.Sprintf("towers: DLRM tower expects (S,%d,%d), got %v", t.F, t.N, x.Shape()))
	}
	s := x.Dim(0)
	t.lastS = s
	var parts []*tensor.Tensor
	if t.Flat != nil {
		parts = append(parts, t.Flat.Forward(x.Reshape(s, t.F*t.N)))
	}
	if t.PerFeature != nil {
		o2 := t.PerFeature.Forward(x.Reshape(s*t.F, t.N))
		parts = append(parts, o2.Reshape(s, t.F*t.C*t.D))
	}
	if len(parts) == 1 {
		return parts[0]
	}
	return tensor.Concat(1, parts...)
}

// ForwardInference maps (S, F, N) to (S, OutDim) without caching training
// state, so one module instance can serve concurrent read-only predictions.
// The output and its intermediates come from the arena a (see
// nn.Linear.ForwardInference).
func (t *DLRMTower) ForwardInference(a *tensor.Arena, x *tensor.Tensor) *tensor.Tensor {
	if x.Rank() != 3 || x.Dim(1) != t.F || x.Dim(2) != t.N {
		panic(fmt.Sprintf("towers: DLRM tower expects (S,%d,%d), got %v", t.F, t.N, x.Shape()))
	}
	s := x.Dim(0)
	var flat, perFeat *tensor.Tensor
	if t.Flat != nil {
		flat = t.Flat.ForwardInference(a, a.Reshape(x, s, t.F*t.N))
	}
	if t.PerFeature != nil {
		o2 := t.PerFeature.ForwardInference(a, a.Reshape(x, s*t.F, t.N))
		perFeat = a.Reshape(o2, s, t.F*t.C*t.D)
	}
	switch {
	case perFeat == nil:
		return flat
	case flat == nil:
		return perFeat
	}
	return a.Concat(1, flat, perFeat)
}

// Backward maps dY (S, OutDim) to dX (S, F, N).
func (t *DLRMTower) Backward(dy *tensor.Tensor) *tensor.Tensor {
	s := t.lastS
	dx := tensor.New(s, t.F, t.N)
	off := 0
	if t.Flat != nil {
		w := t.P * t.D
		dy1 := tensor.SplitCols(dy, []int{w, dy.Dim(1) - w})
		d1 := t.Flat.Backward(dy1[0])
		tensor.AddInPlace(dx, d1.Reshape(s, t.F, t.N))
		off = w
	}
	if t.PerFeature != nil {
		w := t.F * t.C * t.D
		var dy2 *tensor.Tensor
		if off == 0 {
			dy2 = dy
		} else {
			dy2 = tensor.SplitCols(dy, []int{off, w})[1]
		}
		d2 := t.PerFeature.Backward(dy2.Reshape(s*t.F, t.C*t.D))
		tensor.AddInPlace(dx, d2.Reshape(s, t.F, t.N))
	}
	return dx
}

// Params exposes the trainable parameters for intra-tower reduction.
func (t *DLRMTower) Params() []*nn.Param {
	var ps []*nn.Param
	if t.Flat != nil {
		ps = append(ps, t.Flat.Params()...)
	}
	if t.PerFeature != nil {
		ps = append(ps, t.PerFeature.Params()...)
	}
	return ps
}

// DCNTower is Listing 2: linear(F·N → F·D)(crossnet(flatten(x))).
// Output width F·D.
type DCNTower struct {
	F, N, D int
	Cross   *nn.CrossNet
	Proj    *nn.Linear
}

// NewDCNTower builds the module with the given number of cross layers.
func NewDCNTower(r *tensor.RNG, f, n, d, crossLayers int, name string) *DCNTower {
	if d <= 0 || crossLayers <= 0 {
		panic(fmt.Sprintf("towers: invalid DCN tower D=%d layers=%d", d, crossLayers))
	}
	return &DCNTower{
		F: f, N: n, D: d,
		Cross: nn.NewCrossNet(r, f*n, crossLayers, name+".cross"),
		Proj:  nn.NewLinear(r, f*n, f*d, name+".proj"),
	}
}

// OutDim returns O = F·D.
func (t *DCNTower) OutDim() int { return t.F * t.D }

// Forward maps (S, F, N) to (S, F·D).
func (t *DCNTower) Forward(x *tensor.Tensor) *tensor.Tensor {
	if x.Rank() != 3 || x.Dim(1) != t.F || x.Dim(2) != t.N {
		panic(fmt.Sprintf("towers: DCN tower expects (S,%d,%d), got %v", t.F, t.N, x.Shape()))
	}
	s := x.Dim(0)
	o := t.Cross.Forward(x.Reshape(s, t.F*t.N))
	return t.Proj.Forward(o)
}

// ForwardInference maps (S, F, N) to (S, F·D) without caching training
// state, drawing from the arena a.
func (t *DCNTower) ForwardInference(a *tensor.Arena, x *tensor.Tensor) *tensor.Tensor {
	if x.Rank() != 3 || x.Dim(1) != t.F || x.Dim(2) != t.N {
		panic(fmt.Sprintf("towers: DCN tower expects (S,%d,%d), got %v", t.F, t.N, x.Shape()))
	}
	s := x.Dim(0)
	o := t.Cross.ForwardInference(a, a.Reshape(x, s, t.F*t.N))
	return t.Proj.ForwardInference(a, o)
}

// Backward maps dY (S, F·D) to dX (S, F, N).
func (t *DCNTower) Backward(dy *tensor.Tensor) *tensor.Tensor {
	do := t.Proj.Backward(dy)
	dflat := t.Cross.Backward(do)
	return dflat.Reshape(dflat.Dim(0), t.F, t.N)
}

// Params exposes the trainable parameters.
func (t *DCNTower) Params() []*nn.Param {
	return append(t.Cross.Params(), t.Proj.Params()...)
}

// PassThrough is the identity tower (SPTT without compression): it flattens
// (S, F, N) to (S, F·N). Compression ratio 1 — the module that makes the
// compressed flow reproduce the pass-through transform exactly, as
// examples/sptt_walkthrough demonstrates.
type PassThrough struct {
	F, N  int
	lastS int
}

// NewPassThrough builds the identity tower.
func NewPassThrough(f, n int) *PassThrough { return &PassThrough{F: f, N: n} }

// OutDim returns F·N.
func (t *PassThrough) OutDim() int { return t.F * t.N }

// Forward flattens.
func (t *PassThrough) Forward(x *tensor.Tensor) *tensor.Tensor {
	t.lastS = x.Dim(0)
	return x.Reshape(x.Dim(0), t.F*t.N).Clone()
}

// Backward unflattens.
func (t *PassThrough) Backward(dy *tensor.Tensor) *tensor.Tensor {
	return dy.Reshape(t.lastS, t.F, t.N).Clone()
}

// Params returns nil.
func (t *PassThrough) Params() []*nn.Param { return nil }

// CompressionRatio returns the paper's CR for a set of tower output widths:
// CR = |F|·N / Σ O_t (Table 5 reports D ∈ {64,32,16,8} at N=128 as
// CR ∈ {2,4,8,16}).
func CompressionRatio(totalFeatures, n int, outDims []int) float64 {
	sum := 0
	for _, o := range outDims {
		sum += o
	}
	if sum == 0 {
		return 0
	}
	return float64(totalFeatures*n) / float64(sum)
}

// Interface conformance checks.
var (
	_ sptt.TowerModule = (*DLRMTower)(nil)
	_ sptt.TowerModule = (*DCNTower)(nil)
	_ sptt.TowerModule = (*PassThrough)(nil)
)

// BuildReplicas constructs per-rank tower-module replicas for a tower-
// aligned SPTT config: every rank of host t receives an identically
// initialized module for tower t (same derived seed), which is the
// data-parallel-within-tower deployment the distributed path requires.
// make builds one module for tower t over ft features.
func BuildReplicas(cfg sptt.Config, seed uint64, mk func(r *tensor.RNG, tower, ft int) sptt.TowerModule) []sptt.TowerModule {
	root := tensor.NewRNG(seed)
	towerSeeds := make([]uint64, cfg.T())
	for t := range towerSeeds {
		towerSeeds[t] = root.Uint64()
	}
	mods := make([]sptt.TowerModule, cfg.G)
	for g := 0; g < cfg.G; g++ {
		t := g / cfg.L
		ft := len(cfg.TowerFeatures(t))
		mods[g] = mk(tensor.NewRNG(towerSeeds[t]), t, ft)
	}
	return mods
}
