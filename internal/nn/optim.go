package nn

import (
	"math"

	"dmt/internal/tensor"
)

// Adam's moment decays and denominator guard, the standard (0.9, 0.999,
// 1e-8). They are typed float32 so that the bias corrections widen
// float32(0.9), the value the kernel multiplies by, to float64.
const (
	beta1 float32 = 0.9
	beta2 float32 = 0.999
	eps   float32 = 1e-8
)

// Adam implements the Adam optimizer, the paper's choice for both the Strong
// Baseline and DMT models (§5.1) and for the Tower Partitioner's MDS solve
// (§3.3).
//
// Concurrency: Step mutates the step counter and moment maps, so an Adam
// instance must be owned by a single goroutine at a time. Data-parallel
// ranks each hold their own instance (identical state keeps replicas in
// lockstep), which is what lets the distributed trainer run per-rank
// optimizer steps concurrently.
type Adam struct {
	LR   float32
	t    int
	m, v map[*Param]*tensor.Tensor
}

// NewAdam returns Adam at learning rate lr.
func NewAdam(lr float32) *Adam {
	return &Adam{
		LR: lr,
		m:  make(map[*Param]*tensor.Tensor),
		v:  make(map[*Param]*tensor.Tensor),
	}
}

// Step applies one bias-corrected Adam update (tensor.AdamUpdate, the
// vector kernel where the CPU has one).
func (o *Adam) Step(params []*Param) {
	o.t++
	s := tensor.AdamStep{LR: o.LR, Beta1: beta1, Beta2: beta2, Eps: eps,
		BC1: 1 - math.Pow(float64(beta1), float64(o.t)),
		BC2: 1 - math.Pow(float64(beta2), float64(o.t)),
	}
	for _, p := range params {
		m := o.m[p]
		if m == nil {
			m = tensor.New(p.Value.Shape()...)
			o.m[p] = m
		}
		v := o.v[p]
		if v == nil {
			v = tensor.New(p.Value.Shape()...)
			o.v[p] = v
		}
		tensor.AdamUpdate(s, p.Value.Data(), p.Grad.Data(), m.Data(), v.Data())
	}
}

// SparseAdam is Adam specialized for embedding tables: moment state is kept
// per table row and only touched rows are updated ("lazy" semantics, as in
// PyTorch's SparseAdam / TorchRec fused optimizers). Bias correction uses a
// per-row step count so rarely-touched rows are not over-corrected.
//
// Concurrency: Step calls on *distinct* tables may run from different
// goroutines provided every table was Primed first — Prime pre-creates the
// per-table state, after which concurrent Steps only read the state map and
// mutate disjoint per-table structs. Two concurrent Steps on the same table
// race, as do unprimed concurrent Steps (both insert into the map); the
// distributed trainer satisfies both rules by having exactly one owner rank
// per table.
type SparseAdam struct {
	LR float32

	state map[*EmbeddingBag]*sparseAdamState
}

type sparseAdamState struct {
	m, v  *tensor.Tensor
	steps []int

	// bc[t] memoises the bias corrections (1-beta1^t, 1-beta2^t) of step
	// count t. A row's corrections depend on nothing but its step count,
	// and every touched row needs them on every step. The table grows to
	// the largest step count any row of this table has reached.
	bc [][2]float64
}

// biasCorrection returns (1-beta1^t, 1-beta2^t), from the memo.
func (st *sparseAdamState) biasCorrection(t int) (bc1, bc2 float64) {
	for n := len(st.bc); n <= t; n++ {
		st.bc = append(st.bc, [2]float64{
			1 - math.Pow(float64(beta1), float64(n)),
			1 - math.Pow(float64(beta2), float64(n)),
		})
	}
	return st.bc[t][0], st.bc[t][1]
}

// NewSparseAdam returns a SparseAdam at learning rate lr.
func NewSparseAdam(lr float32) *SparseAdam {
	return &SparseAdam{LR: lr, state: make(map[*EmbeddingBag]*sparseAdamState)}
}

// Prime pre-creates table e's moment state so later Step calls never write
// the state map — the prerequisite for applying sparse updates to distinct
// tables from concurrent owner-rank goroutines.
func (o *SparseAdam) Prime(e *EmbeddingBag) {
	o.ensure(e)
}

func (o *SparseAdam) ensure(e *EmbeddingBag) *sparseAdamState {
	st := o.state[e]
	if st == nil {
		st = &sparseAdamState{
			m:     tensor.New(e.Rows, e.Dim),
			v:     tensor.New(e.Rows, e.Dim),
			steps: make([]int, e.Rows),
		}
		o.state[e] = st
	}
	return st
}

// Step applies the sparse gradient g to table e, one tensor.AdamUpdate per
// touched row with that row's bias corrections.
func (o *SparseAdam) Step(e *EmbeddingBag, g *SparseGrad) {
	st := o.ensure(e)
	s := tensor.AdamStep{LR: o.LR, Beta1: beta1, Beta2: beta2, Eps: eps}
	for i, row := range g.Rows {
		st.steps[row]++
		s.BC1, s.BC2 = st.biasCorrection(st.steps[row])
		tensor.AdamUpdate(s, e.Table.Row(row), g.Grads.Row(i), st.m.Row(row), st.v.Row(row))
	}
}

// ExponentialLR decays a base learning rate by gamma every stepSize steps —
// the "tuned learning rate schedule" attached to the Strong Baseline (§5.1)
// in simplified form.
type ExponentialLR struct {
	Base     float32
	Gamma    float64
	StepSize int
}

// At returns the learning rate for global step t.
func (s ExponentialLR) At(t int) float32 {
	if s.StepSize <= 0 {
		return s.Base
	}
	k := t / s.StepSize
	return s.Base * float32(math.Pow(s.Gamma, float64(k)))
}
