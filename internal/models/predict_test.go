package models

import (
	"math"
	"runtime"
	"slices"
	"testing"

	"dmt/internal/data"
	"dmt/internal/embeddings"
	"dmt/internal/nn"
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
// copies, since Predict hands it its scratch rows.
type mapCache map[uint64][]float32

func (c mapCache) GetRows(keys *embeddings.KeyBatch, dst embeddings.Rows, hit []bool) {
	for i, key := range keys.Keys {
		v, ok := c[key]
		copy(dst.Row(i), v)
		hit[i] = ok
	}
}

func (c mapCache) FillRows(keys *embeddings.KeyBatch, f embeddings.RowFiller) {
	for i, key := range keys.Keys {
		dst := f.Row(i)
		if v, ok := c[key]; ok {
			copy(dst, v)
			continue
		}
		f.Fill(i, dst)
		c[key] = slices.Clone(dst)
	}
}

func (c mapCache) PutRows(keys *embeddings.KeyBatch, src embeddings.Rows) {
	for i, key := range keys.Keys {
		c[key] = slices.Clone(src.Row(i))
	}
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

// TestPredictCacheCallsMatchPerRowReplay runs a stream of Predict batches,
// with keys repeating within and across batches, through small embedding
// and tower caches that evict, and replays on twin caches the one-key calls
// a per-row serving path makes: per sample a tower read; per distinct
// missed tower key, each of its bags read and, on a miss, pooled and
// written, then its tower row written; for the DLRM, each bag feature by
// feature. After every batch the counters must agree, and at the end every
// key the stream made must read back alike, bit for bit.
func TestPredictCacheCallsMatchPerRowReplay(t *testing.T) {
	cfg := data.CriteoLike(4)
	gen := data.NewGenerator(cfg)
	var batches []*data.Batch
	for i := range 12 {
		b := gen.Batch((i*3)%20, 6)
		if i%3 == 0 {
			b = repeatBatch(gen.Batch(i%5, 3), 2)
		}
		batches = append(batches, b)
	}
	dmt := servingDMTDLRM(cfg)
	dlrm := NewDLRM(DefaultDLRMConfig(cfg.Schema, 1))
	for _, tc := range []struct {
		name   string
		m      Predictor
		replay func(b *data.Batch, emb, tow *embeddings.Keyed, keys *[][2]uint64)
	}{
		{"DMT-DLRM", dmt, func(b *data.Batch, emb, tow *embeddings.Keyed, keys *[][2]uint64) {
			tp := &nn.Tape{}
			lead := dmt.Bottom.Forward(tp, b.Dense)
			full := towerInput(tp, nil, lead, dmt.Embs, dmt.cfg.Towers, dmt.TMs, b, PredictOptions{})
			col := lead.Dim(1)
			for tw, feats := range dmt.cfg.Towers {
				o := dmt.TMs[tw].OutDim()
				seen := map[uint64]bool{}
				var miss []int
				var hs []uint64
				for s := range b.Size {
					h := fnvOffset
					for _, f := range feats {
						h = hashBag(h, bagOf(b, f, s))
					}
					if _, ok := tow.GetVec(tw, h); !ok && !seen[h] {
						seen[h] = true
						miss, hs = append(miss, s), append(hs, h)
					}
				}
				for _, s := range miss {
					for _, f := range feats {
						replayBag(emb, dmt.Embs[f], f, bagOf(b, f, s), keys)
					}
				}
				for i, s := range miss {
					tow.PutVec(tw, hs[i], full.Row(s)[col:col+o])
					*keys = append(*keys, [2]uint64{uint64(1000 + tw), hs[i]})
				}
				col += o
			}
		}},
		{"DLRM", dlrm, func(b *data.Batch, emb, _ *embeddings.Keyed, keys *[][2]uint64) {
			for f, e := range dlrm.Embs {
				for s := range b.Size {
					replayBag(emb, e, f, bagOf(b, f, s), keys)
				}
			}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			emb, tow := embeddings.NewKeyed(96, 4), embeddings.NewKeyed(64, 4)
			embTwin, towTwin := embeddings.NewKeyed(96, 4), embeddings.NewKeyed(64, 4)
			opt := PredictOptions{Embeddings: emb, Towers: tow}
			var keys [][2]uint64 // (namespace, key); tower namespaces offset by 1000
			for i, b := range batches {
				tc.m.Predict(b, opt)
				tc.replay(b, embTwin, towTwin, &keys)
				if got, want := emb.Stats(), embTwin.Stats(); got != want {
					t.Fatalf("batch %d: embedding cache %+v, per-row replay %+v", i, got, want)
				}
				if got, want := tow.Stats(), towTwin.Stats(); got != want {
					t.Fatalf("batch %d: tower cache %+v, per-row replay %+v", i, got, want)
				}
			}
			if st := emb.Stats(); st.Hits == 0 || st.Evictions == 0 {
				t.Fatalf("embedding cache made %d hits and %d evictions; the stream must make both", st.Hits, st.Evictions)
			}
			if st := tow.Stats(); tc.name == "DMT-DLRM" && (st.Hits == 0 || st.Evictions == 0) {
				t.Fatalf("tower cache made %d hits and %d evictions; the stream must make both", st.Hits, st.Evictions)
			}
			for _, k := range keys {
				c, twin, ns := emb, embTwin, int(k[0])
				if ns >= 1000 {
					c, twin, ns = tow, towTwin, ns-1000
				}
				got, ok := c.GetVec(ns, k[1])
				want, wantOK := twin.GetVec(ns, k[1])
				if ok != wantOK || !slices.EqualFunc(got, want, func(a, b float32) bool { return math.Float32bits(a) == math.Float32bits(b) }) {
					t.Fatalf("key %v: cached %v %v, per-row replay %v %v", k, got, ok, want, wantOK)
				}
			}
		})
	}
}

// replayBag is the per-row embedding-cache path: a read and, on a miss, a
// pool and a write.
func replayBag(emb *embeddings.Keyed, e *nn.EmbeddingBag, f int, bag []int32, keys *[][2]uint64) {
	key := hashBag(fnvOffset, bag)
	*keys = append(*keys, [2]uint64{uint64(f), key})
	if _, ok := emb.GetVec(f, key); ok {
		return
	}
	v := make([]float32, e.Dim)
	e.PoolBagInto(v, bag)
	emb.PutVec(f, key, v)
}
