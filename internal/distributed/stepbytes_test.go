//go:build !race

package distributed

import (
	"runtime"
	"testing"

	"dmt/internal/data"
	"dmt/internal/models"
	"dmt/internal/netsim"
	"dmt/internal/quant"
	"dmt/internal/tensor"
	"dmt/internal/topology"
)

// benchShape is a copy of one of the repo benchmark's two training
// workloads (benchmark/train.go): 8 ranks at 2 per host, local batch 64, the
// A100 fabric on the virtual clock.
type benchShape struct {
	name                string
	features, hot, card int
	d                   int
	topMLP              []int
	overlap             bool
	pipeline            int
	wire                quant.Scheme
	servers, cacheRows  int
	warmup              int
	// maxBytes and maxAllocs bound the bytes and the objects one
	// steady-state step allocates.
	maxBytes, maxAllocs float64
}

const benchG, benchL, benchBatch = 8, 2, 64

func (sh benchShape) setUp(t testing.TB) (*Trainer, *data.Generator) {
	dcfg := data.CriteoLike(0)
	dcfg.Cardinalities = make([]int, sh.features)
	dcfg.HotSizes = make([]int, sh.features)
	for i := range dcfg.Cardinalities {
		dcfg.Cardinalities[i] = sh.card
		dcfg.HotSizes[i] = sh.hot
	}
	dcfg.NumGroups = benchG / benchL
	tr, err := New(Config{
		G: benchG, L: benchL, LocalBatch: benchBatch,
		Model: models.DMTDLRMConfig{
			Schema: dcfg.Schema, N: 16,
			Towers: models.RoundRobinTowers(benchG/benchL, sh.features),
			C:      1, P: 0, D: sh.d,
			BottomMLP: []int{32, sh.d},
			TopMLP:    sh.topMLP,
			Seed:      99,
		},
		DenseLR: 1e-3, SparseLR: 1e-2, Seed: 7,
		Overlap:       sh.overlap,
		Pipeline:      sh.pipeline,
		Compression:   Compression{Gradient: sh.wire, Embedding: sh.wire},
		Fabric:        netsim.New(topology.A100),
		EmbeddingTier: EmbeddingTier{Servers: sh.servers, CacheRows: sh.cacheRows},
	})
	if err != nil {
		t.Fatal(err)
	}
	return tr, data.NewGenerator(dcfg)
}

// TestStepBytes pins the bytes and the objects a steady-state training
// step allocates at the benchmark's train_dense and train_embed shapes:
// TotalAlloc and Mallocs over 20 steps after the warm-up, the generator's
// batches excluded. Linear's weight gradients accumulated in place and the
// SPTT exchange's one-pass layout permute took the bytes from 16.5 and
// 37.3 MB to 12.57 and 33.48 MB (≈ 3 010 and 4 045 objects). The arenas
// (the models' and the tower modules' training tapes, tensor.Scratch's
// pass arenas for the over-arch and the SPTT re-layings), the bucket
// payloads encoded into buffers of their own and the parameter lists built
// once took them to ≈ 5.4 and 23.1 MB, ≈ 1 910 and 3 000 objects. SPTT
// step (f) encoding into payloads each rank keeps, decoded in place on the
// receiver, took train_dense to ≈ 4.2 MB and ≈ 1 700 objects (train_embed,
// on the fp32 wire, kept ≈ 23.0 MB and ≈ 2 990). Step (a)'s bags and the
// embedding tier's requests travelling by reference, with no int32 codec,
// took them to 4.1–4.3 MB and ≈ 1 360 objects, and ≈ 18.3 MB and ≈ 2 345.
func TestStepBytes(t *testing.T) {
	if tensor.ArenaCheck {
		t.Skip("under arenacheck every Reset drops the arena's memory, so every pass allocates it afresh")
	}
	const steps = 20
	for _, sh := range []benchShape{
		{name: "train_dense", features: 16, hot: 1, card: 128, d: 16,
			topMLP: []int{256, 128}, pipeline: 1, wire: quant.FP16,
			warmup: 24, maxBytes: 4.4e6, maxAllocs: 1440},
		{name: "train_embed", features: 32, hot: 4, card: 4096, d: 8,
			topMLP: []int{32}, overlap: true, wire: quant.None,
			servers: 2, cacheRows: 8192, warmup: 30, maxBytes: 18.8e6, maxAllocs: 2400},
	} {
		t.Run(sh.name, func(t *testing.T) {
			tr, gen := sh.setUp(t)
			defer tr.Close()
			batches := make([][]*data.Batch, sh.warmup+steps)
			for s := range batches {
				batches[s] = make([]*data.Batch, benchG)
				for r := range batches[s] {
					batches[s][r] = gen.Batch((s*benchG+r)*benchBatch, benchBatch)
				}
			}
			for s := 0; s < sh.warmup; s++ {
				tr.Step(batches[s])
			}
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			for s := sh.warmup; s < sh.warmup+steps; s++ {
				tr.Step(batches[s])
			}
			runtime.ReadMemStats(&after)
			perStep := float64(after.TotalAlloc-before.TotalAlloc) / steps
			objects := float64(after.Mallocs-before.Mallocs) / steps
			t.Logf("%s: %.2f MB and %.0f objects per step", sh.name, perStep/1e6, objects)
			if perStep > sh.maxBytes {
				t.Errorf("%s: a steady-state step allocates %.2f MB, want ≤ %.2f MB", sh.name, perStep/1e6, sh.maxBytes/1e6)
			}
			if objects > sh.maxAllocs {
				t.Errorf("%s: a steady-state step allocates %.0f objects, want ≤ %.0f", sh.name, objects, sh.maxAllocs)
			}
		})
	}
}

// BenchmarkHotpathTrainStep times one rank-parallel training step at the
// benchmark's train_dense and train_embed shapes, TestStepBytes' copies,
// after their warm-ups: ns, bytes and objects per step (-benchmem). The
// steps cycle over 32 steps' batches, generated before the timer starts.
func BenchmarkHotpathTrainStep(b *testing.B) {
	for _, sh := range []benchShape{
		{name: "train_dense", features: 16, hot: 1, card: 128, d: 16,
			topMLP: []int{256, 128}, pipeline: 1, wire: quant.FP16, warmup: 24},
		{name: "train_embed", features: 32, hot: 4, card: 4096, d: 8,
			topMLP: []int{32}, overlap: true, wire: quant.None,
			servers: 2, cacheRows: 8192, warmup: 30},
	} {
		b.Run(sh.name, func(b *testing.B) {
			tr, gen := sh.setUp(b)
			defer tr.Close()
			batches := make([][]*data.Batch, 32)
			for s := range batches {
				batches[s] = make([]*data.Batch, benchG)
				for r := range batches[s] {
					batches[s][r] = gen.Batch((s*benchG+r)*benchBatch, benchBatch)
				}
			}
			for s := 0; s < sh.warmup; s++ {
				tr.Step(batches[s%len(batches)])
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				tr.Step(batches[i%len(batches)])
			}
		})
	}
}
