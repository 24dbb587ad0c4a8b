package nn

import (
	"math"
	"testing"
	"testing/quick"

	"dmt/internal/tensor"
)

// linearOf is a Linear layer with the given weights (Out, In) and bias,
// its parameter list built as NewLinear builds it.
func linearOf(w, b *tensor.Tensor) *Linear {
	l := &Linear{In: w.Dim(1), Out: w.Dim(0), W: NewParam("w", w), B: NewParam("b", b)}
	l.params = []*Param{l.W, l.B}
	return l
}

func TestLinearForwardKnown(t *testing.T) {
	l := linearOf(tensor.FromSlice([]float32{2, 3}, 1, 2), tensor.FromSlice([]float32{10}, 1))
	y := l.Forward(&Tape{}, tensor.FromSlice([]float32{1, 1, 2, 0}, 2, 2))
	if y.At(0, 0) != 15 || y.At(1, 0) != 14 {
		t.Fatalf("linear forward got %v", y.Data())
	}
}

func TestLinearRejectsWrongWidth(t *testing.T) {
	r := tensor.NewRNG(1)
	l := NewLinear(r, 3, 2, "l")
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for wrong input width")
		}
	}()
	l.Forward(&Tape{}, tensor.New(2, 4))
}

// TestReLUForwardBackward runs the MLP's in-place ReLU through an identity
// layer: the forward clamps every value that is not > 0 (NaN and -0
// included) to +0, and the backward passes the gradient exactly where the
// recorded output is > 0.
func TestReLUForwardBackward(t *testing.T) {
	id := linearOf(tensor.FromSlice([]float32{1}, 1, 1), tensor.New(1))
	m := &MLP{Layers: []*Linear{id}, FinalReLU: true, params: id.params}
	nan, negZero := float32(math.NaN()), float32(math.Copysign(0, -1))
	tp := &Tape{Record: true}
	y := m.Forward(tp, tensor.FromSlice([]float32{-1, 0, 2, nan, negZero}, 5, 1))
	for i, want := range []float32{0, 0, 2, 0, 0} {
		if got := y.Data()[i]; math.Float32bits(got) != math.Float32bits(want) {
			t.Fatalf("relu forward[%d] = %v (bits %08x), want +%v", i, got, math.Float32bits(got), want)
		}
	}
	dy := tensor.FromSlice([]float32{5, 5, 5, 5, 5}, 5, 1)
	dx := m.Backward(tp, dy)
	for i, want := range []float32{0, 0, 5, 0, 0} {
		if got := dx.Data()[i]; got != want {
			t.Fatalf("relu backward[%d] = %v, want %v", i, got, want)
		}
	}
	if dy.Data()[0] != 5 {
		t.Fatal("MLP.Backward overwrote the caller's gradient")
	}
	if tp.Len() != 0 {
		t.Fatalf("tape holds %d records after the pass's Backward, want 0", tp.Len())
	}
}

func TestEmbeddingBagPooling(t *testing.T) {
	e := &EmbeddingBag{Name: "e", Rows: 3, Dim: 2,
		Table: tensor.FromSlice([]float32{1, 2, 10, 20, 100, 200}, 3, 2)}
	y := e.Forward(&Tape{}, []int32{0, 2, 1}, []int32{0, 2})
	// bag0 = row0+row2 = (101, 202); bag1 = row1 = (10, 20)
	if y.At(0, 0) != 101 || y.At(0, 1) != 202 || y.At(1, 0) != 10 {
		t.Fatalf("sum pooling got %v", y.Data())
	}
}

func TestEmbeddingBagEmptyBag(t *testing.T) {
	r := tensor.NewRNG(2)
	e := NewEmbeddingBag(r, 4, 3, "e")
	y := e.Forward(&Tape{}, []int32{1}, []int32{0, 1, 1}) // bags: {1}, {}, {}
	for d := 0; d < 3; d++ {
		if y.At(1, d) != 0 || y.At(2, d) != 0 {
			t.Fatal("empty bags must pool to zero")
		}
	}
}

func TestEmbeddingBagOutOfRangePanics(t *testing.T) {
	r := tensor.NewRNG(3)
	e := NewEmbeddingBag(r, 4, 3, "e")
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for out-of-range index")
		}
	}()
	e.Forward(&Tape{}, []int32{4}, []int32{0})
}

func TestEmbeddingLookupRows(t *testing.T) {
	e := &EmbeddingBag{Name: "e", Rows: 3, Dim: 2,
		Table: tensor.FromSlice([]float32{1, 2, 10, 20, 100, 200}, 3, 2)}
	y := e.LookupRows([]int32{2, 0})
	if y.At(0, 1) != 200 || y.At(1, 0) != 1 {
		t.Fatalf("LookupRows got %v", y.Data())
	}
}

func TestCrossNetSingleLayerKnown(t *testing.T) {
	// One layer, W = I, b = 0: y = x0*(x0) + x0 = x0² + x0.
	c := NewCrossNet(tensor.NewRNG(1), 2, 1, "c")
	c.Ws[0].Value = tensor.FromSlice([]float32{1, 0, 0, 1}, 2, 2)
	c.Bs[0].Value = tensor.New(2)
	y := c.Forward(&Tape{}, tensor.FromSlice([]float32{2, 3}, 1, 2))
	if y.At(0, 0) != 6 || y.At(0, 1) != 12 {
		t.Fatalf("crossnet known got %v", y.Data())
	}
}

func TestBCEKnownValues(t *testing.T) {
	loss := &BCEWithLogits{}
	// logit 0 with any label gives log(2).
	got := loss.Forward(tensor.FromSlice([]float32{0, 0}, 2), []float32{0, 1})
	if math.Abs(got-math.Log(2)) > 1e-9 {
		t.Fatalf("bce at 0 = %v, want log 2", got)
	}
	// Extreme correct logit gives near-zero loss.
	got = loss.Forward(tensor.FromSlice([]float32{30}, 1), []float32{1})
	if got > 1e-9 {
		t.Fatalf("bce for confident correct = %v", got)
	}
}

func TestSigmoidStable(t *testing.T) {
	if s := Sigmoid(1000); s != 1 {
		t.Fatalf("sigmoid(1000) = %v", s)
	}
	if s := Sigmoid(-1000); s != 0 {
		t.Fatalf("sigmoid(-1000) = %v", s)
	}
	if math.Abs(Sigmoid(0)-0.5) > 1e-12 {
		t.Fatal("sigmoid(0) != 0.5")
	}
}

func TestAdamConvergesOnQuadratic(t *testing.T) {
	// Minimize (w-3)² with Adam; gradient = 2(w-3).
	p := NewParam("w", tensor.FromSlice([]float32{0}, 1))
	o := NewAdam(0.1)
	for i := 0; i < 500; i++ {
		p.ZeroGrad()
		p.Grad.Data()[0] = 2 * (p.Value.Data()[0] - 3)
		o.Step([]*Param{p})
	}
	if math.Abs(float64(p.Value.Data()[0])-3) > 1e-2 {
		t.Fatalf("adam converged to %v, want 3", p.Value.Data()[0])
	}
}

// TestSparseAdamMatchesDenseAdamWhenAllRowsTouched: with every row touched
// every step, SparseAdam's 3-wide rows (all scalar tail) and dense Adam's
// whole tensor (one vector block, then the tail) perform one element
// arithmetic, so the tables agree exactly.
func TestSparseAdamMatchesDenseAdamWhenAllRowsTouched(t *testing.T) {
	r := tensor.NewRNG(8)
	table := tensor.RandN(r, 1, 4, 3)
	e := &EmbeddingBag{Name: "e", Rows: 4, Dim: 3, Table: table.Clone()}
	p := NewParam("dense", table.Clone())

	sparse := NewSparseAdam(0.01)
	dense := NewAdam(0.01)
	for step := 0; step < 5; step++ {
		g := tensor.RandN(r, 1, 4, 3)
		p.ZeroGrad()
		p.Grad.CopyFrom(g)
		dense.Step([]*Param{p})
		sparse.Step(e, &SparseGrad{Rows: []int{0, 1, 2, 3}, Grads: g})
	}
	if !e.Table.Equal(p.Value) {
		t.Fatalf("sparse Adam diverged from dense Adam by %v", e.Table.MaxAbsDiff(p.Value))
	}
}

// TestAdamStepAllocatesNothing pins the optimizer's steady state: once the
// first Step has created the moments, Step allocates nothing.
func TestAdamStepAllocatesNothing(t *testing.T) {
	r := tensor.NewRNG(3)
	params := []*Param{NewParam("w", tensor.RandN(r, 1, 64, 67)), NewParam("b", tensor.RandN(r, 1, 67))}
	o := NewAdam(1e-3)
	o.Step(params)
	if n := testing.AllocsPerRun(20, func() { o.Step(params) }); n != 0 {
		t.Fatalf("Adam.Step allocates %v per call after the first, want 0", n)
	}
}

func TestSparseAdamLazyRows(t *testing.T) {
	e := &EmbeddingBag{Name: "e", Rows: 3, Dim: 1,
		Table: tensor.FromSlice([]float32{1, 1, 1}, 3, 1)}
	o := NewSparseAdam(0.1)
	o.Step(e, &SparseGrad{Rows: []int{0}, Grads: tensor.FromSlice([]float32{1}, 1, 1)})
	if e.Table.At(1, 0) != 1 || e.Table.At(2, 0) != 1 {
		t.Fatal("untouched rows must not move")
	}
	if e.Table.At(0, 0) == 1 {
		t.Fatal("touched row must move")
	}
}

func TestExponentialLR(t *testing.T) {
	s := ExponentialLR{Base: 1, Gamma: 0.5, StepSize: 10}
	if s.At(0) != 1 || s.At(9) != 1 {
		t.Fatal("no decay within first window")
	}
	if s.At(10) != 0.5 || s.At(25) != 0.25 {
		t.Fatalf("decay wrong: %v %v", s.At(10), s.At(25))
	}
	flat := ExponentialLR{Base: 2}
	if flat.At(100) != 2 {
		t.Fatal("StepSize 0 must mean constant LR")
	}
}

func TestCountAndCollectParams(t *testing.T) {
	r := tensor.NewRNG(9)
	m := NewMLP(r, 4, []int{3, 2}, false, "m")
	// (3*4+3) + (2*3+2) = 15 + 8 = 23
	if got := CountParams(m); got != 23 {
		t.Fatalf("CountParams = %d", got)
	}
	if len(CollectParams(m, m)) != 8 {
		t.Fatalf("CollectParams = %d", len(CollectParams(m, m)))
	}
}

// Properties.

// TestQuickReLUNonNegative: an MLP ending in ReLU emits neither a negative
// value nor -0.
func TestQuickReLUNonNegative(t *testing.T) {
	f := func(seed uint64, n8 uint8) bool {
		n := int(n8%32) + 1
		r := tensor.NewRNG(seed)
		y := NewMLP(r, 4, []int{n}, true, "m").Forward(&Tape{}, tensor.RandN(r, 3, 2, 4))
		for _, v := range y.Data() {
			if math.Signbit(float64(v)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickBCENonNegative(t *testing.T) {
	f := func(seed uint64, n8 uint8) bool {
		n := int(n8%32) + 1
		r := tensor.NewRNG(seed)
		logits := tensor.RandN(r, 3, n)
		labels := make([]float32, n)
		for i := range labels {
			if r.Float64() < 0.5 {
				labels[i] = 1
			}
		}
		return (&BCEWithLogits{}).Forward(logits, labels) >= 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickEmbeddingSumLinearity(t *testing.T) {
	// Pooling a bag equals the sum of pooling its singleton bags.
	f := func(seed uint64, rows8, dim8 uint8) bool {
		rows, dim := int(rows8%8)+2, int(dim8%6)+1
		r := tensor.NewRNG(seed)
		e := NewEmbeddingBag(r, rows, dim, "e")
		idx := []int32{0, int32(rows - 1), int32(rows / 2)}
		full := e.Forward(&Tape{}, idx, []int32{0})
		acc := tensor.New(1, dim)
		for _, i := range idx {
			tensor.AddInPlace(acc, e.Forward(&Tape{}, []int32{i}, []int32{0}))
		}
		return full.AllClose(acc, 1e-5, 1e-6)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestDotInteractionMatchesPlainDots holds ForwardInto to one ascending-p sum
// per pair, bit for bit, at every feature count from 1 to 11 (so every
// padding of a row's pairs to groups of 4 occurs) on a batch of 3, fewer
// samples than a vector's 8 lanes.
func TestDotInteractionMatchesPlainDots(t *testing.T) {
	r := tensor.NewRNG(12)
	for f := 1; f <= 11; f++ {
		x := tensor.RandN(r, 1, 3, f, 5)
		di := &DotInteraction{}
		y := tensor.New(3, di.OutDim(f))
		di.ForwardInto(&Tape{}, y, 0, x)
		k := 0
		for s := 0; s < 3; s++ {
			for i := 0; i < f; i++ {
				for j := i + 1; j < f; j++ {
					var dot float32
					for p := 0; p < 5; p++ {
						dot += float32(x.At(s, i, p) * x.At(s, j, p))
					}
					if got := y.Data()[k]; math.Float32bits(got) != math.Float32bits(dot) {
						t.Fatalf("F=%d sample %d pair (%d,%d): %v, want %v", f, s, i, j, got, dot)
					}
					k++
				}
			}
		}
		if k != y.Len() {
			t.Fatalf("F=%d: %d outputs, want %d", f, y.Len(), k)
		}
	}
}

// Forward pools rows for each bag, as the models do one PoolBagInto at a
// time, and records the bags for Backward. Returns a (numBags, Dim) tensor
// from t's arena. Empty bags pool to zero.
func (e *EmbeddingBag) Forward(t *Tape, indices, offsets []int32) *tensor.Tensor {
	out := t.New(len(offsets), e.Dim)
	for b := range offsets {
		lo, hi := BagBounds(offsets, b, len(indices))
		e.PoolBagInto(out.Row(b), indices[lo:hi])
	}
	e.Record(t, indices, offsets)
	return out
}

// TestDotInteractionForwardAllocs pins ForwardInto on an arena tape, at
// the serving batch's (32, 9, 128) input, to no allocation once the arena
// has served one pass: the output comes from the arena and the vector
// routine's packed panel stays on the stack.
func TestDotInteractionForwardAllocs(t *testing.T) {
	if tensor.ArenaCheck {
		t.Skip("under arenacheck every Reset drops the arena's memory, so every pass allocates it afresh")
	}
	x := tensor.RandN(tensor.NewRNG(13), 1, 32, 9, 128)
	di := &DotInteraction{}
	tp := &Tape{Arena: &tensor.Arena{}, Record: true}
	pass := func() {
		tp.Reset()
		di.ForwardInto(tp, tp.New(32, di.OutDim(9)), 0, x)
	}
	pass()
	if n := testing.AllocsPerRun(50, pass); n != 0 {
		t.Errorf("DotInteraction.ForwardInto on an arena tape allocates %v times", n)
	}
}

// TestParamListsAllocateNothing pins Linear's and MLP's Params at zero
// allocations: NewLinear and NewMLP build the lists once.
func TestParamListsAllocateNothing(t *testing.T) {
	r := tensor.NewRNG(4)
	l := NewLinear(r, 3, 2, "l")
	m := NewMLP(r, 3, []int{4, 2}, true, "m")
	if n := testing.AllocsPerRun(50, func() { l.Params(); m.Params() }); n != 0 {
		t.Errorf("Params allocates %v times", n)
	}
	if ps := m.Params(); len(ps) != 4 || ps[0] != m.Layers[0].W || ps[3] != m.Layers[1].B {
		t.Errorf("MLP.Params lists %d parameters out of layer order", len(ps))
	}
}
