package nn

import (
	"fmt"
	"math"

	"dmt/internal/tensor"
)

// Sigmoid returns 1/(1+e^-x) computed stably.
func Sigmoid(x float64) float64 {
	if x >= 0 {
		return 1 / (1 + math.Exp(-x))
	}
	e := math.Exp(x)
	return e / (1 + e)
}

// BCEWithLogits is the binary cross-entropy loss over raw logits, averaged
// over the batch — the CTR training objective for every model in the paper.
type BCEWithLogits struct {
	lastLogits *tensor.Tensor
	lastLabels []float32
}

// Forward returns mean_i [ log(1+e^{z_i}) - y_i z_i ] computed stably for
// logits of shape (B) or (B, 1).
func (l *BCEWithLogits) Forward(logits *tensor.Tensor, labels []float32) float64 {
	z := logits.Data()
	if len(z) != len(labels) {
		panic(fmt.Sprintf("nn: BCE batch mismatch %d logits vs %d labels", len(z), len(labels)))
	}
	l.lastLogits = logits
	l.lastLabels = labels
	total := 0.0
	for i, zi := range z {
		x := float64(zi)
		y := float64(labels[i])
		// log(1+e^x) - y*x, stable form: max(x,0) - y*x + log(1+e^{-|x|})
		total += math.Max(x, 0) - float64(y*x) + math.Log1p(math.Exp(-math.Abs(x)))
	}
	return total / float64(len(z))
}

// Backward returns dLoss/dLogits = (σ(z) - y)/B with the same shape as the
// forward logits.
func (l *BCEWithLogits) Backward() *tensor.Tensor {
	if l.lastLogits == nil {
		panic("nn: BCEWithLogits.Backward before Forward")
	}
	out := tensor.New(l.lastLogits.Shape()...)
	z, od := l.lastLogits.Data(), out.Data()
	invB := 1 / float32(len(z))
	for i, zi := range z {
		od[i] = (float32(Sigmoid(float64(zi))) - l.lastLabels[i]) * invB
	}
	return out
}

// Predictions applies the sigmoid to a logits tensor, returning CTR
// probabilities used by the AUC/NE metrics.
func Predictions(logits *tensor.Tensor) []float64 {
	z := logits.Data()
	out := make([]float64, len(z))
	for i, zi := range z {
		out[i] = Sigmoid(float64(zi))
	}
	return out
}
