package nn

import (
	"math"
	"testing"

	"dmt/internal/tensor"
)

// weightedSum gives a deterministic scalar loss over a tensor so that
// gradient checks exercise every output coordinate: loss = Σ c_i * y_i with
// fixed pseudo-random coefficients.
type weightedSum struct {
	coeffs []float32
}

func newWeightedSum(n int, seed uint64) *weightedSum {
	r := tensor.NewRNG(seed)
	c := make([]float32, n)
	for i := range c {
		c[i] = float32(r.NormFloat64())
	}
	return &weightedSum{coeffs: c}
}

func (w *weightedSum) Loss(y *tensor.Tensor) float64 {
	s := 0.0
	for i, v := range y.Data() {
		s += float64(w.coeffs[i]) * float64(v)
	}
	return s
}

func (w *weightedSum) Grad(shape []int) *tensor.Tensor {
	return tensor.FromSlice(append([]float32(nil), w.coeffs...), shape...)
}

// checkDense compares an analytic gradient with central differences of
// lossFn with respect to every element of value.
func checkDense(t *testing.T, name string, value, analytic *tensor.Tensor, lossFn func() float64, tol float64) {
	t.Helper()
	const eps = 1e-3
	data := value.Data()
	for i := range data {
		orig := data[i]
		data[i] = orig + eps
		up := lossFn()
		data[i] = orig - eps
		down := lossFn()
		data[i] = orig
		num := (up - down) / (2 * eps)
		got := float64(analytic.Data()[i])
		scale := math.Max(1, math.Max(math.Abs(num), math.Abs(got)))
		if math.Abs(num-got)/scale > tol {
			t.Fatalf("%s grad[%d]: numerical %v vs analytic %v", name, i, num, got)
		}
	}
}

func TestLinearGradients(t *testing.T) {
	r := tensor.NewRNG(1)
	l := NewLinear(r, 3, 2, "lin")
	x := tensor.RandN(r, 1, 4, 3)
	ws := newWeightedSum(8, 7)
	lossFn := func() float64 { return ws.Loss(l.Forward(&Tape{}, x)) }

	ZeroGrads(l)
	tp := &Tape{Record: true}
	y := l.Forward(tp, x)
	dx := l.Backward(tp, ws.Grad(y.Shape()))

	checkDense(t, "linear dX", x, dx, lossFn, 1e-2)
	checkDense(t, "linear dW", l.W.Value, l.W.Grad, lossFn, 1e-2)
	checkDense(t, "linear dB", l.B.Value, l.B.Grad, lossFn, 1e-2)
}

func TestMLPGradients(t *testing.T) {
	r := tensor.NewRNG(2)
	m := NewMLP(r, 4, []int{5, 3}, false, "mlp")
	x := tensor.RandN(r, 1, 3, 4)
	ws := newWeightedSum(9, 11)
	lossFn := func() float64 { return ws.Loss(m.Forward(&Tape{}, x)) }

	ZeroGrads(m)
	tp := &Tape{Record: true}
	y := m.Forward(tp, x)
	dx := m.Backward(tp, ws.Grad(y.Shape()))

	checkDense(t, "mlp dX", x, dx, lossFn, 1e-2)
	for _, p := range m.Params() {
		checkDense(t, "mlp "+p.Name, p.Value, p.Grad, lossFn, 1e-2)
	}
}

func TestMLPFinalReLU(t *testing.T) {
	r := tensor.NewRNG(3)
	m := NewMLP(r, 2, []int{2}, true, "mlp")
	y := m.Forward(&Tape{}, tensor.RandN(r, 5, 4, 2))
	for _, v := range y.Data() {
		if v < 0 {
			t.Fatal("final ReLU must clamp outputs at zero")
		}
	}
}

func TestDotInteractionGradients(t *testing.T) {
	r := tensor.NewRNG(4)
	di := &DotInteraction{}
	x := tensor.RandN(r, 1, 2, 4, 3) // B=2, F=4, N=3
	// The pairs' window sits inside a wider input, as in the models' top MLP.
	const col, w = 2, 2 + 6 + 1
	ws := newWeightedSum(2*w, 13)
	forward := func(tp *Tape) *tensor.Tensor {
		y := tensor.New(2, w)
		di.ForwardInto(tp, y, col, x)
		return y
	}
	lossFn := func() float64 { return ws.Loss(forward(&Tape{})) }

	tp := &Tape{Record: true}
	y := forward(tp)
	dx := di.BackwardFrom(tp, ws.Grad(y.Shape()), col)
	checkDense(t, "dot dX", x, dx, lossFn, 1e-2)
}

func TestCrossNetGradients(t *testing.T) {
	r := tensor.NewRNG(5)
	c := NewCrossNet(r, 4, 2, "cn")
	x := tensor.RandN(r, 0.5, 3, 4)
	ws := newWeightedSum(12, 17)
	lossFn := func() float64 { return ws.Loss(c.Forward(&Tape{}, x)) }

	ZeroGrads(c)
	tp := &Tape{Record: true}
	y := c.Forward(tp, x)
	dx := c.Backward(tp, ws.Grad(y.Shape()))

	checkDense(t, "crossnet dX", x, dx, lossFn, 1e-2)
	for _, p := range c.Params() {
		checkDense(t, "crossnet "+p.Name, p.Value, p.Grad, lossFn, 1e-2)
	}
}

func TestBCEGradients(t *testing.T) {
	r := tensor.NewRNG(6)
	logits := tensor.RandN(r, 2, 6)
	labels := []float32{0, 1, 1, 0, 1, 0}
	loss := &BCEWithLogits{}
	lossFn := func() float64 { return loss.Forward(logits, labels) }

	lossFn()
	dz := loss.Backward()
	checkDense(t, "bce dLogits", logits, dz, lossFn, 1e-2)
}

func TestEmbeddingBagBackwardMatchesNumerical(t *testing.T) {
	r := tensor.NewRNG(7)
	e := NewEmbeddingBag(r, 6, 3, "emb")
	// Re-init to spread values.
	e.Table = tensor.RandN(r, 1, 6, 3)
	indices := []int32{0, 2, 2, 5, 1} // duplicate row 2 to exercise coalescing
	offsets := []int32{0, 3, 3}       // bags: {0,2,2}, {}, {5,1}
	ws := newWeightedSum(9, 19)
	lossFn := func() float64 { return ws.Loss(e.Forward(&Tape{}, indices, offsets)) }

	tp := &Tape{Record: true}
	y := e.Forward(tp, indices, offsets)
	sg := e.Backward(tp, ws.Grad(y.Shape()))

	// Densify the sparse gradient.
	dense := tensor.New(6, 3)
	for i, row := range sg.Rows {
		copy(dense.Row(row), sg.Grads.Row(i))
	}
	checkDense(t, "embedding table", e.Table, dense, lossFn, 1e-2)

	// Rows must be the touched set, sorted, without duplicates.
	want := []int{0, 1, 2, 5}
	if len(sg.Rows) != len(want) {
		t.Fatalf("touched rows %v", sg.Rows)
	}
	for i := range want {
		if sg.Rows[i] != want[i] {
			t.Fatalf("touched rows %v, want %v", sg.Rows, want)
		}
	}
}

// ZeroGrads clears gradients of all parameters of the given modules.
func ZeroGrads(ms ...Module) {
	for _, m := range ms {
		for _, p := range m.Params() {
			p.ZeroGrad()
		}
	}
}
