package models

import (
	"testing"

	"dmt/internal/data"
	"dmt/internal/embeddings"
)

// BenchmarkHotpathPredict times the serving DMT-DLRM's Predict at batch 32
// through embedding and tower caches at the server's geometry (16 384
// entries over 8 shards each), on cold keys: the batches cycle through
// 4096 distinct samples, twice the samples the tower cache can hold, so
// every tower lookup misses and inserts with an eviction, while repeated
// ids still hit the embedding cache. Run it with -benchmem: allocs/op is
// the returned logits alone.
func BenchmarkHotpathPredict(b *testing.B) {
	const (
		batch   = 32
		samples = 4096
	)
	cfg := data.CriteoLike(1)
	m := servingDMTDLRM(cfg)
	gen := data.NewGenerator(cfg)
	batches := make([]*data.Batch, samples/batch)
	for i := range batches {
		batches[i] = gen.Batch(i*batch, batch)
	}
	opt := PredictOptions{Embeddings: embeddings.NewKeyed(1<<14, 8), Towers: embeddings.NewKeyed(1<<14, 8)}
	for _, bt := range batches {
		m.Predict(bt, opt) // fill both caches
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Predict(batches[i%len(batches)], opt)
	}
	b.StopTimer()
	b.ReportMetric(opt.Towers.(*embeddings.Keyed).Stats().HitRate(), "tower-hit-share")
}
