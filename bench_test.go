// Benchmarks regenerating every table and figure of the paper's evaluation,
// plus microbenchmarks of the core dataflow and training step. Run with
//
//	go test -bench=. -benchmem
//
// Performance-model experiments take milliseconds; training-based quality
// experiments run at the smoke profile and take seconds per iteration (the
// harness automatically runs those once).
package dmt_test

import (
	"testing"

	"dmt/internal/data"
	"dmt/internal/experiments"
	"dmt/internal/models"
	"dmt/internal/nn"
	"dmt/internal/sptt"
	"dmt/internal/tensor"
	"dmt/internal/topology"
)

// BenchmarkExperiments regenerates every registered experiment, one
// sub-benchmark per registry entry (`dmt-bench -list`, `dmt-train -list`):
// the simulated-fabric tables on A100, the quality tables at the smoke
// profile, the serving tables at their command defaults. Each iteration
// produces the complete rendered artifact.
func BenchmarkExperiments(b *testing.B) {
	opts := experiments.Options{Gen: topology.A100, Profile: experiments.Smoke()}
	for _, e := range experiments.All() {
		b.Run(e.Name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if out, err := e.Run(opts); err != nil || out == "" {
					b.Fatalf("%s: %q, %v", e.Name, out, err)
				}
			}
		})
	}
}

// --- Microbenchmarks of the core dataflow and training step ---

func spttBenchSetup(g, l, batch, nFeatures int) (*sptt.Engine, []*sptt.Inputs) {
	cfg := sptt.Config{G: g, L: l, B: batch, N: 16}
	t := g / l
	towersList := make([][]int, t)
	for f := 0; f < nFeatures; f++ {
		cfg.Features = append(cfg.Features, sptt.FeatureSpec{
			Name: "f", Cardinality: 1000, Hot: 1})
		towersList[f%t] = append(towersList[f%t], f)
	}
	towerOf, rankOf, err := sptt.TowerAssignment(towersList, nFeatures, l)
	if err != nil {
		panic(err)
	}
	cfg.TowerOf, cfg.RankOf = towerOf, rankOf
	eng, err := sptt.NewEngine(cfg, 1)
	if err != nil {
		panic(err)
	}
	r := tensor.NewRNG(2)
	inputs := make([]*sptt.Inputs, g)
	for rank := 0; rank < g; rank++ {
		in := &sptt.Inputs{Indices: make([][]int32, nFeatures), Offsets: make([][]int32, nFeatures)}
		for f := 0; f < nFeatures; f++ {
			idx := make([]int32, batch)
			off := make([]int32, batch)
			for s := 0; s < batch; s++ {
				idx[s] = int32(r.Intn(1000))
				off[s] = int32(s)
			}
			in.Indices[f], in.Offsets[f] = idx, off
		}
		inputs[rank] = in
	}
	return eng, inputs
}

func BenchmarkSPTT_BaselineDataflow(b *testing.B) {
	eng, inputs := spttBenchSetup(8, 2, 32, 16)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng.BaselineForward(inputs)
	}
}

func BenchmarkSPTT_TransformDataflow(b *testing.B) {
	eng, inputs := spttBenchSetup(8, 2, 32, 16)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng.SPTTForward(inputs, sptt.Options{})
	}
}

// BenchmarkDistributedStep compares the single-goroutine reference step
// against the rank-parallel engine under its three schedules at G=8 (4
// hosts of 2 ranks), fp32. All engines execute identical mathematics over
// the same batches, so ns/op is a direct engine comparison. The pipeline
// variant's deferred bucket tail is drained after the timed loop, before the
// stats are read.
// (The compressed-wire, simulated-fabric and remote-tier shapes are
// benchmark/'s train_dense and train_embed workloads, with exact pins.)
func BenchmarkDistributedStep(b *testing.B) {
	for _, mode := range []struct {
		name              string
		sequential        bool
		overlap, pipeline bool
	}{
		{"sequential", true, false, false},
		{"rank-parallel", false, false, false},
		{"overlap", false, true, false},
		{"pipeline", false, false, true},
	} {
		b.Run(mode.name+"/G=8", func(b *testing.B) {
			p := experiments.DefaultTraining()
			p.Overlap, p.Pipeline = mode.overlap, mode.pipeline
			tr, gen, err := experiments.NewTrainer(p, mode.sequential)
			if err != nil {
				b.Fatal(err)
			}
			defer tr.Close()
			// Cycle a small set of pre-materialized step batches so data
			// generation stays out of the timed loop.
			const nSets = 4
			sets := make([][]*data.Batch, nSets)
			for i := range sets {
				sets[i] = experiments.TrainingBatches(gen, p, i)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				tr.Step(sets[i%nSets])
			}
			b.StopTimer()
			tr.Drain() // fold the pipelined tail into the stats; no-op otherwise
			st := tr.Stats()
			b.ReportMetric(float64(st.Steps)/b.Elapsed().Seconds(), "steps/s")
		})
	}
}

// benchTrainStep times one single-process training step — forward, loss,
// backward, dense Adam, sparse Adam — on a fixed 256-sample batch.
func benchTrainStep(b *testing.B, m models.Model, batch *data.Batch) {
	loss := &nn.BCEWithLogits{}
	opt := nn.NewAdam(1e-3)
	sparse := nn.NewSparseAdam(1e-2)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		logits := m.Forward(batch)
		loss.Forward(logits, batch.Labels)
		for _, p := range m.DenseParams() {
			p.ZeroGrad()
		}
		m.Backward(loss.Backward())
		opt.Step(m.DenseParams())
		for fi, g := range m.TakeSparseGrads() {
			sparse.Step(m.Embeddings()[fi], g)
		}
	}
}

func BenchmarkTrainStep_DLRM(b *testing.B) {
	cfg := data.CriteoLike(1)
	m := models.NewDLRM(models.DefaultDLRMConfig(cfg.Schema, 1))
	benchTrainStep(b, m, data.NewGenerator(cfg).Batch(0, 256))
}

func BenchmarkTrainStep_DMTDLRM(b *testing.B) {
	cfg := data.CriteoLike(1)
	towersList := models.RoundRobinTowers(13, cfg.NumSparse())
	m := models.NewDMTDLRM(models.DefaultDMTDLRMConfig(cfg.Schema, towersList, 1))
	benchTrainStep(b, m, data.NewGenerator(cfg).Batch(0, 256))
}
