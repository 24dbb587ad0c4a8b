package nn

import (
	"math"
	"strings"
	"sync"
	"testing"

	"dmt/internal/tensor"
)

func TestParamLifecycle(t *testing.T) {
	p := NewParam("w", tensor.FromSlice([]float32{1, 2}, 2))
	if p.NumElements() != 2 {
		t.Fatalf("NumElements = %d", p.NumElements())
	}
	p.Grad.Data()[0] = 5
	p.ZeroGrad()
	if p.Grad.Data()[0] != 0 {
		t.Fatal("ZeroGrad must clear")
	}
	if p.Grad.Len() != p.Value.Len() {
		t.Fatal("grad shape must match value")
	}
}

func TestMLPOutDimAndDepth(t *testing.T) {
	r := tensor.NewRNG(1)
	m := NewMLP(r, 8, []int{16, 4}, false, "m")
	if m.OutDim() != 4 {
		t.Fatalf("OutDim = %d", m.OutDim())
	}
	if len(m.Layers) != 2 {
		t.Fatalf("layers = %d", len(m.Layers))
	}
}

func TestCrossNetLayerCount(t *testing.T) {
	c := NewCrossNet(tensor.NewRNG(2), 4, 3, "c")
	if c.Layers() != 3 {
		t.Fatalf("Layers = %d", c.Layers())
	}
	if len(c.Params()) != 6 {
		t.Fatalf("params = %d, want W+b per layer", len(c.Params()))
	}
}

// TestLinearBackwardBeforeForwardPanics holds the tape's misuse checks: a
// Backward with no record to pop, a Backward on a tape that did not record,
// and a Backward that would pop another layer's record each panic, naming
// the layer.
func TestLinearBackwardBeforeForwardPanics(t *testing.T) {
	r := tensor.NewRNG(3)
	l := NewLinear(r, 2, 2, "l")
	other := NewLinear(r, 2, 2, "other")
	x, dy := tensor.New(1, 2), tensor.New(1, 2)
	mustPanic := func(what, want string, f func()) {
		t.Helper()
		defer func() {
			t.Helper()
			msg, _ := recover().(string)
			if !strings.Contains(msg, want) {
				t.Fatalf("%s: panic %q, want one naming %q", what, msg, want)
			}
		}()
		f()
	}
	mustPanic("empty tape", "Linear l:", func() { l.Backward(&Tape{Record: true}, dy) })
	mustPanic("non-recording tape", "Linear l:", func() {
		tp := &Tape{}
		l.Forward(tp, x)
		l.Backward(tp, dy)
	})
	mustPanic("another layer's record", "record of Linear other", func() {
		tp := &Tape{Record: true}
		l.Forward(tp, x)
		other.Forward(tp, x)
		l.Backward(tp, dy)
	})
	mustPanic("an MLP's gate record", "Linear m.1: Backward would consume the record of MLP m", func() {
		m := NewMLP(r, 2, []int{2, 2}, true, "m")
		tp := &Tape{Record: true}
		m.Forward(tp, x)
		m.Layers[1].Backward(tp, dy)
	})
}

func TestDotInteractionOutDim(t *testing.T) {
	d := &DotInteraction{}
	if d.OutDim(27) != 27*26/2 {
		t.Fatalf("OutDim(27) = %d", d.OutDim(27))
	}
	if d.OutDim(1) != 0 {
		t.Fatal("single feature has no pairs")
	}
}

func TestGradientAccumulationAcrossCalls(t *testing.T) {
	// Two backward passes without ZeroGrad must accumulate (the contract
	// the distributed trainer's gradient averaging relies on).
	r := tensor.NewRNG(4)
	l := NewLinear(r, 2, 1, "l")
	x := tensor.FromSlice([]float32{1, 2}, 1, 2)
	dy := tensor.FromSlice([]float32{1}, 1, 1)
	tp := &Tape{Record: true}
	l.Forward(tp, x)
	l.Backward(tp, dy)
	once := l.W.Grad.Clone()
	l.Forward(tp, x)
	l.Backward(tp, dy)
	for i, v := range l.W.Grad.Data() {
		if v != 2*once.Data()[i] {
			t.Fatal("gradients must accumulate across backward calls")
		}
	}
}

func TestAdamDistinctParamsIndependentState(t *testing.T) {
	a := NewParam("a", tensor.FromSlice([]float32{0}, 1))
	b := NewParam("b", tensor.FromSlice([]float32{0}, 1))
	opt := NewAdam(0.1)
	a.Grad.Data()[0] = 1
	opt.Step([]*Param{a, b})
	if a.Value.Data()[0] == 0 {
		t.Fatal("param with gradient must move")
	}
	if b.Value.Data()[0] != 0 {
		t.Fatal("param without gradient must not move")
	}
}

// TestSparseAdamPrimeConcurrentTables exercises the optimizer's concurrency
// contract: once every table is Primed, Steps on distinct tables may run
// from concurrent goroutines (the distributed trainer's owner ranks). The
// result must match the same updates applied sequentially.
func TestSparseAdamPrimeConcurrentTables(t *testing.T) {
	mkTables := func() []*EmbeddingBag {
		r := tensor.NewRNG(5)
		return []*EmbeddingBag{
			NewEmbeddingBag(r.Split(1), 16, 4, "a"),
			NewEmbeddingBag(r.Split(2), 16, 4, "b"),
		}
	}
	mkGrad := func(seed uint64) *SparseGrad {
		r := tensor.NewRNG(seed)
		return &SparseGrad{Rows: []int{1, 7}, Grads: tensor.RandN(r, 1, 2, 4)}
	}

	seqTabs, parTabs := mkTables(), mkTables()
	seqOpt, parOpt := NewSparseAdam(1e-2), NewSparseAdam(1e-2)
	for i, e := range parTabs {
		parOpt.Prime(e)
		seqOpt.Step(seqTabs[i], mkGrad(uint64(10+i)))
	}
	var wg sync.WaitGroup
	for i, e := range parTabs {
		wg.Add(1)
		go func(i int, e *EmbeddingBag) {
			defer wg.Done()
			parOpt.Step(e, mkGrad(uint64(10+i)))
		}(i, e)
	}
	wg.Wait()
	for i := range seqTabs {
		if !seqTabs[i].Table.Equal(parTabs[i].Table) {
			t.Fatalf("table %d: concurrent primed updates diverge from sequential", i)
		}
	}
}

// TestSparseAdamBiasCorrectionMemo: the per-step-count memo of the bias
// corrections is a cache of math.Pow results, nothing more. Two optimizers
// step identical tables through 200 identical sparse gradients — rows
// touched at different rates, so their step counts spread; one has its memo
// thrown away before every step, so each correction it uses comes fresh
// from math.Pow. A memo that returned another step count's entry would
// split the tables.
func TestSparseAdamBiasCorrectionMemo(t *testing.T) {
	const rows, dim = 12, 3
	newTable := func() *EmbeddingBag {
		return NewEmbeddingBag(tensor.NewRNG(21), rows, dim, "memo")
	}
	memoTable, freshTable := newTable(), newTable()
	memo, fresh := NewSparseAdam(0.05), NewSparseAdam(0.05)
	rng := tensor.NewRNG(22)
	for step := 0; step < 200; step++ {
		var touched []int
		for r := 0; r < rows; r++ {
			if step%(r+1) == 0 { // row r every r+1 steps
				touched = append(touched, r)
			}
		}
		g := &SparseGrad{Rows: touched, Grads: tensor.RandUniform(rng, -1, 1, len(touched), dim)}
		memo.Step(memoTable, g)
		if st := fresh.state[freshTable]; st != nil {
			st.bc = nil
		}
		fresh.Step(freshTable, g)
		for i, w := range freshTable.Table.Data() {
			if got := memoTable.Table.Data()[i]; math.Float32bits(got) != math.Float32bits(w) {
				t.Fatalf("step %d: element %d = %x with the memo, %x without", step, i, math.Float32bits(got), math.Float32bits(w))
			}
		}
	}
	if st := memo.state[memoTable]; len(st.bc) == 0 || len(st.bc) > 201 {
		t.Fatalf("memo holds %d step counts after 200 steps", len(st.bc))
	}
}

// Layers returns the number of cross layers.
func (c *CrossNet) Layers() int { return len(c.Ws) }
