package models

import (
	"math"
	"runtime"
	"slices"
	"testing"

	"dmt/internal/data"
	"dmt/internal/tensor"
)

// servingDMTDLRM is the serving benchmark's DMT-DLRM: 8 towers, D = 128.
func servingDMTDLRM(cfg data.Config) *DMTDLRM {
	return NewDMTDLRM(DMTDLRMConfig{
		Schema: cfg.Schema, N: 32,
		Towers: RoundRobinTowers(8, cfg.Schema.NumSparse()),
		C:      0, P: 1, D: 128,
		BottomMLP: []int{64, 128},
		TopMLP:    []int{32},
		Seed:      1,
	})
}

// sink keeps a measured result on the heap, as a caller's would be.
var sink *tensor.Tensor

// allocsPerCall is testing.AllocsPerRun without its switch to GOMAXPROCS(1):
// the mallocs of runs calls of f, divided by runs and rounded down, at the
// default procs. A collection comes first, so that starting mark workers
// does not count, and then a warm-up call: the collection parks the
// caller, which may resume on another proc, and f's pooled scratch sits in
// the private slot of the proc that put it back.
func allocsPerCall(runs int, f func()) uint64 {
	runtime.GC()
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range runs {
		f()
	}
	runtime.ReadMemStats(&after)
	return (after.Mallocs - before.Mallocs) / uint64(runs)
}

// TestDMTDLRMPredictAllocs pins the cache-less Predict at batch 32, at the
// default GOMAXPROCS, to the allocations of its returned logits tensor
// alone: every intermediate comes from the pooled arena, and every GEMM
// runs on the calling goroutine. Under -race, where sync.Pool drops a share
// of the scratch put back, it keeps the older bound of 224.
func TestDMTDLRMPredictAllocs(t *testing.T) {
	cfg := data.CriteoLike(1)
	m := servingDMTDLRM(cfg)
	b := data.NewGenerator(cfg).Batch(0, 32)
	limit, what := uint64(224), "the bound under -race"
	if !raceEnabled {
		limit = allocsPerCall(20, func() { sink = tensor.New(32) })
		what = "the logits tensor's"
	}
	if n := allocsPerCall(20, func() { sink = m.Predict(b, PredictOptions{}) }); n > limit {
		t.Fatalf("DMT-DLRM Predict at batch 32: %v allocations, want <= %v (%s)", n, limit, what)
	}
}

// mapCache is a VecCache without eviction. Like embeddings.Keyed it keeps
// copies, since Predict hands PutVec its scratch rows.
type mapCache map[[2]uint64][]float32

func (c mapCache) GetInto(ns int, key uint64, dst []float32) bool {
	v, ok := c[[2]uint64{uint64(ns), key}]
	copy(dst, v)
	return ok
}

func (c mapCache) PutVec(ns int, key uint64, v []float32) {
	c[[2]uint64{uint64(ns), key}] = slices.Clone(v)
}

// TestPredictTowerCacheMatchesUncached predicts a batch whose samples repeat
// within it, through a cold and then a warm tower cache: in-batch duplicates
// share one tower-module row and hits are copied in, and both passes must
// equal the cache-less Predict bit for bit.
func TestPredictTowerCacheMatchesUncached(t *testing.T) {
	cfg := data.CriteoLike(2)
	m := servingDMTDLRM(cfg)
	b := repeatBatch(data.NewGenerator(cfg).Batch(0, 5), 3)
	want := m.Predict(b, PredictOptions{}).Data()
	opt := PredictOptions{Towers: mapCache{}}
	for pass := 0; pass < 2; pass++ {
		for i, v := range m.Predict(b, opt).Data() {
			if math.Float32bits(v) != math.Float32bits(want[i]) {
				t.Fatalf("pass %d sample %d: %v with the tower cache, %v without", pass, i, v, want[i])
			}
		}
	}
	if len(opt.Towers.(mapCache)) != 8*5 {
		t.Fatalf("%d tower rows cached, want one per tower per distinct sample (40)", len(opt.Towers.(mapCache)))
	}
}

// repeatBatch returns b's samples r times over, in order.
func repeatBatch(b *data.Batch, r int) *data.Batch {
	out := &data.Batch{Size: r * b.Size, Indices: make([][]int32, len(b.Indices)), Offsets: make([][]int32, len(b.Offsets))}
	var dense []float32
	for i := 0; i < r; i++ {
		dense = append(dense, b.Dense.Data()...)
		for f := range b.Indices {
			for _, o := range b.Offsets[f] {
				out.Offsets[f] = append(out.Offsets[f], o+int32(len(out.Indices[f])))
			}
			out.Indices[f] = append(out.Indices[f], b.Indices[f]...)
		}
	}
	out.Dense = tensor.FromSlice(dense, out.Size, b.Dense.Dim(1))
	return out
}
