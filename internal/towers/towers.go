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
// Each tower type has one forward body, ForwardOn, over a caller's nn.Tape.
// Its sptt.TowerModule face, Forward and Backward, runs that body on a tape
// the module owns and records on; that is how each replica runs inside the
// distributed dataflow (one per host GPU, gradients AllReduced intra-host).
// The single-process DMT models call ForwardOn and BackwardOn on their own
// tape instead: a recording one to train, and Predict's non-recording one,
// drawn from its pooled arena, to serve.
package towers

import (
	"fmt"

	"dmt/internal/nn"
	"dmt/internal/sptt"
	"dmt/internal/tensor"
)

// Module is a tower module as the single-process DMT models drive it: its
// sptt face plus the same forward and backward on a caller's tape.
type Module interface {
	sptt.TowerModule
	ForwardOn(tp *nn.Tape, x *tensor.Tensor) *tensor.Tensor
	BackwardOn(tp *nn.Tape, dy *tensor.Tensor) *tensor.Tensor
}

// DLRMTower is Listing 1: cat[ linear(N·F → p·D)(flatten(x)),
// linear(N → c·D) applied per feature ]. Output width D·(c·F + p).
type DLRMTower struct {
	F, N, C, P, D int
	// Flat is the p·D-wide projection of the flattened tower embeddings
	// (nil when P == 0); PerFeature is the c·D-wide per-feature projection
	// (nil when C == 0).
	Flat       *nn.Linear
	PerFeature *nn.Linear

	tape nn.Tape // Forward and Backward's
}

// NewDLRMTower builds the module for a tower of f features with embedding
// dim n. At least one of c, p must be positive.
func NewDLRMTower(r *tensor.RNG, f, n, c, p, d int, name string) *DLRMTower {
	if c < 0 || p < 0 || c+p == 0 || d <= 0 {
		panic(fmt.Sprintf("towers: invalid DLRM tower c=%d p=%d D=%d", c, p, d))
	}
	t := &DLRMTower{F: f, N: n, C: c, P: p, D: d, tape: nn.Tape{Record: true}}
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

// Forward maps (S, F, N) to (S, OutDim), recording on the module's tape.
func (t *DLRMTower) Forward(x *tensor.Tensor) *tensor.Tensor {
	t.tape.Reset()
	return t.ForwardOn(&t.tape, x)
}

// Backward maps dY (S, OutDim) to dX (S, F, N) through the last Forward.
func (t *DLRMTower) Backward(dy *tensor.Tensor) *tensor.Tensor { return t.BackwardOn(&t.tape, dy) }

// ForwardOn maps (S, F, N) to (S, OutDim) on the tape tp.
func (t *DLRMTower) ForwardOn(tp *nn.Tape, x *tensor.Tensor) *tensor.Tensor {
	if x.Rank() != 3 || x.Dim(1) != t.F || x.Dim(2) != t.N {
		panic(fmt.Sprintf("towers: DLRM tower expects (S,%d,%d), got %v", t.F, t.N, x.Shape()))
	}
	s := x.Dim(0)
	var flat, perFeat *tensor.Tensor
	if t.Flat != nil {
		flat = t.Flat.Forward(tp, tp.Reshape(x, s, t.F*t.N))
	}
	if t.PerFeature != nil {
		o2 := t.PerFeature.Forward(tp, tp.Reshape(x, s*t.F, t.N))
		perFeat = tp.Reshape(o2, s, t.F*t.C*t.D)
	}
	switch {
	case perFeat == nil:
		return flat
	case flat == nil:
		return perFeat
	}
	return tp.Concat(1, flat, perFeat)
}

// BackwardOn maps dY (S, OutDim) to dX (S, F, N), popping ForwardOn's
// records off tp.
func (t *DLRMTower) BackwardOn(tp *nn.Tape, dy *tensor.Tensor) *tensor.Tensor {
	s := dy.Dim(0)
	dx := tensor.New(s, t.F, t.N)
	dFlat, dPer := dy, dy
	if t.Flat != nil && t.PerFeature != nil {
		parts := tensor.SplitCols(dy, []int{t.P * t.D, t.F * t.C * t.D})
		dFlat, dPer = parts[0], parts[1]
	}
	if t.PerFeature != nil {
		d2 := t.PerFeature.Backward(tp, dPer.Reshape(s*t.F, t.C*t.D))
		tensor.AddInPlace(dx, d2.Reshape(s, t.F, t.N))
	}
	if t.Flat != nil {
		tensor.AddInPlace(dx, t.Flat.Backward(tp, dFlat).Reshape(s, t.F, t.N))
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

	tape nn.Tape // Forward and Backward's
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
		tape:  nn.Tape{Record: true},
	}
}

// OutDim returns O = F·D.
func (t *DCNTower) OutDim() int { return t.F * t.D }

// Forward maps (S, F, N) to (S, F·D), recording on the module's tape.
func (t *DCNTower) Forward(x *tensor.Tensor) *tensor.Tensor {
	t.tape.Reset()
	return t.ForwardOn(&t.tape, x)
}

// Backward maps dY (S, F·D) to dX (S, F, N) through the last Forward.
func (t *DCNTower) Backward(dy *tensor.Tensor) *tensor.Tensor { return t.BackwardOn(&t.tape, dy) }

// ForwardOn maps (S, F, N) to (S, F·D) on the tape tp.
func (t *DCNTower) ForwardOn(tp *nn.Tape, x *tensor.Tensor) *tensor.Tensor {
	if x.Rank() != 3 || x.Dim(1) != t.F || x.Dim(2) != t.N {
		panic(fmt.Sprintf("towers: DCN tower expects (S,%d,%d), got %v", t.F, t.N, x.Shape()))
	}
	o := t.Cross.Forward(tp, tp.Reshape(x, x.Dim(0), t.F*t.N))
	return t.Proj.Forward(tp, o)
}

// BackwardOn maps dY (S, F·D) to dX (S, F, N), popping ForwardOn's
// records off tp.
func (t *DCNTower) BackwardOn(tp *nn.Tape, dy *tensor.Tensor) *tensor.Tensor {
	dflat := t.Cross.Backward(tp, t.Proj.Backward(tp, dy))
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
	F, N int
}

// NewPassThrough builds the identity tower.
func NewPassThrough(f, n int) *PassThrough { return &PassThrough{F: f, N: n} }

// OutDim returns F·N.
func (t *PassThrough) OutDim() int { return t.F * t.N }

// Forward flattens.
func (t *PassThrough) Forward(x *tensor.Tensor) *tensor.Tensor {
	return x.Reshape(x.Dim(0), t.F*t.N).Clone()
}

// Backward unflattens.
func (t *PassThrough) Backward(dy *tensor.Tensor) *tensor.Tensor {
	return dy.Reshape(dy.Dim(0), t.F, t.N).Clone()
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
	_ Module           = (*DLRMTower)(nil)
	_ Module           = (*DCNTower)(nil)
	_ sptt.TowerModule = (*PassThrough)(nil)
)
