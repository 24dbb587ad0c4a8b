package nn

import (
	"math"
	"testing"
	"testing/quick"

	"dmt/internal/tensor"
)

func TestLinearForwardKnown(t *testing.T) {
	l := &Linear{In: 2, Out: 1,
		W: NewParam("w", tensor.FromSlice([]float32{2, 3}, 1, 2)),
		B: NewParam("b", tensor.FromSlice([]float32{10}, 1))}
	y := l.Forward(tensor.FromSlice([]float32{1, 1, 2, 0}, 2, 2))
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
	l.Forward(tensor.New(2, 4))
}

func TestReLUForwardBackward(t *testing.T) {
	a := &ReLU{}
	y := a.Forward(tensor.FromSlice([]float32{-1, 0, 2}, 3))
	if y.Data()[0] != 0 || y.Data()[1] != 0 || y.Data()[2] != 2 {
		t.Fatalf("relu forward %v", y.Data())
	}
	dx := a.Backward(tensor.FromSlice([]float32{5, 5, 5}, 3))
	if dx.Data()[0] != 0 || dx.Data()[2] != 5 {
		t.Fatalf("relu backward %v", dx.Data())
	}
}

func TestEmbeddingBagPooling(t *testing.T) {
	e := &EmbeddingBag{Name: "e", Rows: 3, Dim: 2, Mode: PoolSum,
		Table: tensor.FromSlice([]float32{1, 2, 10, 20, 100, 200}, 3, 2)}
	y := e.Forward([]int32{0, 2, 1}, []int32{0, 2})
	// bag0 = row0+row2 = (101, 202); bag1 = row1 = (10, 20)
	if y.At(0, 0) != 101 || y.At(0, 1) != 202 || y.At(1, 0) != 10 {
		t.Fatalf("sum pooling got %v", y.Data())
	}
	e.Mode = PoolMean
	y = e.Forward([]int32{0, 2, 1}, []int32{0, 2})
	if y.At(0, 0) != 50.5 {
		t.Fatalf("mean pooling got %v", y.Data())
	}
}

func TestEmbeddingBagEmptyBag(t *testing.T) {
	r := tensor.NewRNG(2)
	e := NewEmbeddingBag(r, 4, 3, PoolMean, "e")
	y := e.Forward([]int32{1}, []int32{0, 1, 1}) // bags: {1}, {}, {}
	for d := 0; d < 3; d++ {
		if y.At(1, d) != 0 || y.At(2, d) != 0 {
			t.Fatal("empty bags must pool to zero")
		}
	}
}

func TestEmbeddingBagOutOfRangePanics(t *testing.T) {
	r := tensor.NewRNG(3)
	e := NewEmbeddingBag(r, 4, 3, PoolSum, "e")
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for out-of-range index")
		}
	}()
	e.Forward([]int32{4}, []int32{0})
}

func TestEmbeddingLookupRows(t *testing.T) {
	e := &EmbeddingBag{Name: "e", Rows: 3, Dim: 2, Mode: PoolSum,
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
	y := c.Forward(tensor.FromSlice([]float32{2, 3}, 1, 2))
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

func TestSGDStep(t *testing.T) {
	p := NewParam("p", tensor.FromSlice([]float32{1, 1}, 2))
	p.Grad.Data()[0] = 2
	NewSGD(0.1, 0).Step([]*Param{p})
	if math.Abs(float64(p.Value.Data()[0])-0.8) > 1e-6 || p.Value.Data()[1] != 1 {
		t.Fatalf("sgd step got %v", p.Value.Data())
	}
}

func TestSGDMomentumAccumulates(t *testing.T) {
	p := NewParam("p", tensor.FromSlice([]float32{0}, 1))
	o := NewSGD(1, 0.5)
	p.Grad.Data()[0] = 1
	o.Step([]*Param{p}) // v=1, w=-1
	o.Step([]*Param{p}) // v=1.5, w=-2.5
	if math.Abs(float64(p.Value.Data()[0])+2.5) > 1e-6 {
		t.Fatalf("momentum got %v", p.Value.Data()[0])
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
	e := &EmbeddingBag{Name: "e", Rows: 4, Dim: 3, Mode: PoolSum, Table: table.Clone()}
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
	e := &EmbeddingBag{Name: "e", Rows: 3, Dim: 1, Mode: PoolSum,
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

func TestQuickReLUNonNegative(t *testing.T) {
	f := func(seed uint64, n8 uint8) bool {
		n := int(n8%32) + 1
		x := tensor.RandN(tensor.NewRNG(seed), 3, n)
		y := (&ReLU{}).Forward(x)
		for _, v := range y.Data() {
			if v < 0 {
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
		e := NewEmbeddingBag(r, rows, dim, PoolSum, "e")
		idx := []int32{0, int32(rows - 1), int32(rows / 2)}
		full := e.Forward(idx, []int32{0})
		acc := tensor.New(1, dim)
		for _, i := range idx {
			tensor.AddInPlace(acc, e.Forward([]int32{i}, []int32{0}))
		}
		return full.AllClose(acc, 1e-5, 1e-6)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
