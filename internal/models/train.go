package models

import (
	"fmt"

	"dmt/internal/data"
	"dmt/internal/metrics"
	"dmt/internal/nn"
	"dmt/internal/tensor"
)

// sparseLR is the SparseAdam learning rate for tables.
const sparseLR = 1e-2

// TrainConfig drives the single-process trainer. The paper's recipe (§5.1):
// Adam for dense parameters with a tuned learning-rate schedule, sparse Adam
// for embedding tables, identical hyperparameters across baseline and DMT
// runs for fairness.
type TrainConfig struct {
	Steps     int
	BatchSize int
	// DenseLR is the Adam learning rate for dense parameters.
	DenseLR float32
	// Schedule optionally decays DenseLR (Strong Baseline's tuned schedule).
	Schedule *nn.ExponentialLR
	// EvalStart is the first sample index of the held-out evaluation range;
	// it must exceed Steps*BatchSize to avoid leakage.
	EvalStart   int
	EvalSamples int
}

// DefaultTrainConfig returns a configuration sized for in-process runs.
func DefaultTrainConfig() TrainConfig {
	return TrainConfig{
		Steps:       400,
		BatchSize:   256,
		DenseLR:     1e-3,
		EvalStart:   1 << 22,
		EvalSamples: 8192,
	}
}

// TrainResult summarizes a run.
type TrainResult struct {
	ModelName string
	AUC       float64
	LogLoss   float64
	NE        float64
	// FinalTrainLoss is the mean BCE over the last 10% of steps.
	FinalTrainLoss  float64
	Losses          []float64
	Params          int64
	MFlopsPerSample float64
}

// Train runs the training loop and evaluates on held-out samples.
func Train(m Model, gen *data.Generator, cfg TrainConfig) TrainResult {
	if cfg.EvalStart < cfg.Steps*cfg.BatchSize {
		panic(fmt.Sprintf("models: eval range [%d, ...) overlaps training samples [0, %d)",
			cfg.EvalStart, cfg.Steps*cfg.BatchSize))
	}
	denseOpt := nn.NewAdam(cfg.DenseLR)
	sparseOpt := nn.NewSparseAdam(sparseLR)
	loss := &nn.BCEWithLogits{}
	denseParams := m.DenseParams()
	embs := m.Embeddings()

	var losses []float64
	for step := 0; step < cfg.Steps; step++ {
		b := gen.Batch(step*cfg.BatchSize, cfg.BatchSize)
		logits := m.Forward(b)
		l := loss.Forward(logits, b.Labels)
		losses = append(losses, l)

		for _, p := range denseParams {
			p.ZeroGrad()
		}
		m.Backward(loss.Backward())

		if cfg.Schedule != nil {
			denseOpt.LR = cfg.Schedule.At(step)
		}
		denseOpt.Step(denseParams)
		sg := m.TakeSparseGrads()
		for i, g := range sg {
			if g != nil && len(g.Rows) > 0 {
				sparseOpt.Step(embs[i], g)
			}
		}
	}

	res := Evaluate(m, gen, cfg.EvalStart, cfg.EvalSamples, cfg.BatchSize)
	res.ModelName = m.Name()
	res.Losses = losses
	res.Params = m.ParamCount()
	res.MFlopsPerSample = m.FlopsPerSample() / 1e6
	tail := len(losses) / 10
	if tail == 0 {
		tail = 1
	}
	res.FinalTrainLoss = metrics.Mean(losses[len(losses)-tail:])
	return res
}

// Evaluate computes AUC/LogLoss/NE on a held-out sample range. It runs
// Predict, which records nothing, so a training pass in flight is
// undisturbed.
func Evaluate(m Model, gen *data.Generator, start, samples, batchSize int) TrainResult {
	var scores []float64
	var labels []float32
	for off := 0; off < samples; off += batchSize {
		n := batchSize
		if off+n > samples {
			n = samples - off
		}
		b := gen.Batch(start+off, n)
		logits := m.Predict(b, PredictOptions{})
		scores = append(scores, nn.Predictions(logits)...)
		labels = append(labels, b.Labels...)
	}
	return TrainResult{
		AUC:     metrics.AUC(scores, labels),
		LogLoss: metrics.LogLoss(scores, labels),
		NE:      metrics.NormalizedEntropy(scores, labels),
	}
}

// RepeatedAUC trains nRuns fresh models (built by mk, seeded per run) and
// returns the evaluation AUCs — the 9-repeat protocol behind the medians
// and standard deviations of Tables 3–6.
func RepeatedAUC(mk func(seed uint64) Model, gen *data.Generator, cfg TrainConfig, nRuns int, baseSeed uint64) []float64 {
	aucs := make([]float64, nRuns)
	for i := 0; i < nRuns; i++ {
		m := mk(baseSeed + uint64(i)*1000)
		aucs[i] = Train(m, gen, cfg).AUC
	}
	return aucs
}

// GatherFeatureEmbeddings runs the model's tables over a probe batch, on a
// tape that records nothing, and returns (B, F, N) per-sample embeddings —
// the Tower Partitioner's input (§3.3's R tensor).
func GatherFeatureEmbeddings(m Model, gen *data.Generator, start, samples int) *tensor.Tensor {
	return lookupPooled(&nn.Tape{}, nil, m.Embeddings(), gen.Batch(start, samples), nil)
}
