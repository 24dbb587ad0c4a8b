package models

import (
	"slices"
	"sync"

	"dmt/internal/data"
	"dmt/internal/nn"
	"dmt/internal/quant"
	"dmt/internal/tensor"
)

// This file is the serving path: forward-only Predict implementations that
// never touch optimizer or gradient state, so a single model instance can
// answer many concurrent requests (package serve). Two memoization hooks
// exploit request skew:
//
//   - Embeddings memoizes pooled embedding-bag lookups per (table, bag ids)
//     — applicable to any model.
//   - Towers memoizes per-tower derived features per (tower, bag ids of
//     the tower's features) — a DMT-only win: because a tower module reads
//     nothing outside its own feature group, its output for a repeated
//     feature-group value is reusable across requests, whereas a monolithic
//     DLRM/DCN interaction mixes all features and caches nothing above the
//     per-bag level.
//
// The caches copy in and out (VecCache), so Predict hands them its own
// rows and reads hits straight into place. Everything else a Predict call
// computes — activations, the tower input, the miss sub-batch, the
// per-sample dedupe tables — lives in a predictScratch taken from a package
// pool and returned before Predict returns, so a steady stream of batches
// reuses the same memory. Only the returned logits are freshly allocated.

// VecCache memoizes float32 vectors under a (namespace, key) pair — the one
// shape both serving caches share (namespace = table index for pooled bags,
// tower index for tower outputs). embeddings.Keyed satisfies it. The cache
// owns its copies: GetInto copies a hit into dst (leaving dst alone on a
// miss) and PutVec copies v, so callers pass scratch memory both ways.
type VecCache interface {
	GetInto(ns int, key uint64, dst []float32) bool
	PutVec(ns int, key uint64, v []float32)
}

// PredictOptions configures a Predict call. The zero value disables all
// caching and is always valid.
type PredictOptions struct {
	Embeddings VecCache // keyed by table
	Towers     VecCache // keyed by tower; consulted by DMT models only
}

// Predictor is the serving-side model interface: a read-only forward pass
// safe for concurrent use, plus the schema needed to validate requests.
type Predictor interface {
	Name() string
	Schema() data.Schema
	// Predict maps a batch to logits of shape (B). It is safe for
	// concurrent callers and leaves training state untouched. Predict must
	// not retain b or any of its backing arrays past its return, and its
	// result must not alias them: callers (the serve worker pool) reuse the
	// batch's arena for the next flush. The result is the caller's: it
	// aliases neither the batch nor Predict's pooled scratch.
	Predict(b *data.Batch, opt PredictOptions) *tensor.Tensor
}

// predictScratch is one Predict call's reusable memory: the arena every
// intermediate tensor comes from, and cachedTowerForward's per-sample
// tables. A call owns it from getScratch until it puts it back.
type predictScratch struct {
	arena   tensor.Arena
	slot    []int
	miss    []int
	missKey []uint64
	seen    map[uint64]int
}

var scratchPool = sync.Pool{New: func() any { return &predictScratch{seen: make(map[uint64]int)} }}

// getScratch takes a scratch from the pool with its arena rewound; the
// caller puts it back before returning.
func getScratch() *predictScratch {
	sc := scratchPool.Get().(*predictScratch)
	sc.arena.Reset()
	return sc
}

// logits copies a forward's (B, 1) output out of the arena into a fresh
// (B) tensor, so the result outlives the scratch.
func logits(y *tensor.Tensor) *tensor.Tensor {
	out := tensor.New(y.Len())
	copy(out.Data(), y.Data())
	return out
}

// FNV-1a over int32 id streams; bag lengths are mixed in so concatenated
// bags of different splits cannot collide when tower keys chain features.
const (
	fnvOffset uint64 = 14695981039346656037
	fnvPrime  uint64 = 1099511628211
)

func hashBag(h uint64, bag []int32) uint64 {
	h ^= uint64(len(bag))
	h *= fnvPrime
	for _, id := range bag {
		h ^= uint64(uint32(id))
		h *= fnvPrime
	}
	return h
}

// bagOf returns sample s's bag for feature f.
func bagOf(b *data.Batch, f, s int) []int32 {
	lo := int(b.Offsets[f][s])
	hi := len(b.Indices[f])
	if s+1 < len(b.Offsets[f]) {
		hi = int(b.Offsets[f][s+1])
	}
	return b.Indices[f][lo:hi]
}

// pooledBagInto fills dst (zeroed, length Dim) with the pooled lookup of one
// bag, going through the cache when present.
func pooledBagInto(dst []float32, e *nn.EmbeddingBag, table int, bag []int32, cache VecCache) {
	if cache == nil {
		e.PoolBagInto(dst, bag)
		return
	}
	key := hashBag(fnvOffset, bag)
	if cache.GetInto(table, key, dst) {
		return
	}
	e.PoolBagInto(dst, bag)
	cache.PutVec(table, key, dst)
}

// lookupPooled is the inference counterpart of embedAll: every feature's
// pooled lookup for a batch, returning (B, F, N) from the arena a,
// read-only on the tables.
func lookupPooled(a *tensor.Arena, embs []*nn.EmbeddingBag, b *data.Batch, cache VecCache) *tensor.Tensor {
	f := len(embs)
	n := embs[0].Dim
	out := a.New(b.Size, f, n)
	for fi, e := range embs {
		for s := 0; s < b.Size; s++ {
			dst := out.Data()[(s*f+fi)*n : (s*f+fi+1)*n]
			pooledBagInto(dst, e, fi, bagOf(b, fi, s), cache)
		}
	}
	return out
}

// towerModule is the inference face of both tower types.
type towerModule interface {
	OutDim() int
	ForwardInference(*tensor.Arena, *tensor.Tensor) *tensor.Tensor
}

// cachedTowerForward computes one tower's derived features via tm into
// columns [col, col+tm.OutDim()) of out (B, width), memoizing per-sample
// output rows keyed on the tower's bag ids. Rows are cacheable because tower
// modules operate per sample on their own feature group only; misses are
// gathered into one sub-batch so the module still runs batched. Each tower
// writing its own column window of one buffer is what Concat of per-tower
// outputs would build.
func cachedTowerForward(sc *predictScratch, embs []*nn.EmbeddingBag, tower int, feats []int, b *data.Batch,
	opt PredictOptions, out *tensor.Tensor, col int, tm towerModule) {

	outDim := tm.OutDim()
	row := func(s int) []float32 { return out.Row(s)[col : col+outDim] }
	// slot[s] is the row of the miss sub-batch that serves sample s, or -1
	// on a cache hit. Duplicate keys within the batch — the common case
	// under skewed load — share one slot, so each distinct feature-group
	// value runs the tower module exactly once.
	sc.slot = slices.Grow(sc.slot[:0], b.Size)[:b.Size]
	slot := sc.slot
	miss, missKey := sc.miss[:0], sc.missKey[:0] // representative sample and key per distinct missing key
	if opt.Towers == nil {
		for s := range slot {
			slot[s] = s
		}
		miss = slot
	} else {
		seen := sc.seen
		clear(seen)
		for s := 0; s < b.Size; s++ {
			h := fnvOffset
			for _, f := range feats {
				h = hashBag(h, bagOf(b, f, s))
			}
			if opt.Towers.GetInto(tower, h, row(s)) {
				slot[s] = -1
				continue
			}
			if sl, ok := seen[h]; ok {
				slot[s] = sl
				continue
			}
			seen[h] = len(miss)
			slot[s] = len(miss)
			miss = append(miss, s)
			missKey = append(missKey, h)
		}
		sc.miss, sc.missKey = miss, missKey
	}
	if len(miss) == 0 {
		return
	}
	a := &sc.arena
	ft := len(feats)
	n := embs[0].Dim
	sel := a.New(len(miss), ft, n)
	for mi, s := range miss {
		for k, f := range feats {
			dst := sel.Data()[(mi*ft+k)*n : (mi*ft+k+1)*n]
			pooledBagInto(dst, embs[f], f, bagOf(b, f, s), opt.Embeddings)
		}
	}
	y := tm.ForwardInference(a, sel) // (len(miss), outDim)
	for s := 0; s < b.Size; s++ {
		if slot[s] >= 0 {
			copy(row(s), y.Row(slot[s]))
		}
	}
	for mi, key := range missKey {
		opt.Towers.PutVec(tower, key, y.Row(mi))
	}
}

// towerInput is the (B, width) buffer DMT Predict feeds forward, from the
// scratch's arena: lead's columns first, then each tower's output window,
// which cachedTowerForward fills.
func towerInput[TM towerModule](sc *predictScratch, lead *tensor.Tensor, embs []*nn.EmbeddingBag, towers [][]int, tms []TM, b *data.Batch, opt PredictOptions) *tensor.Tensor {
	width := lead.Dim(1)
	for _, tm := range tms {
		width += tm.OutDim()
	}
	out := sc.arena.New(b.Size, width)
	for s := 0; s < b.Size; s++ {
		copy(out.Row(s), lead.Row(s))
	}
	col := lead.Dim(1)
	for t, feats := range towers {
		cachedTowerForward(sc, embs, t, feats, b, opt, out, col, tms[t])
		col += tms[t].OutDim()
	}
	return out
}

// Schema returns the model's feature layout.
func (m *DLRM) Schema() data.Schema { return m.cfg.Schema }

// Predict is the read-only forward pass, math-identical to Forward.
func (m *DLRM) Predict(b *data.Batch, opt PredictOptions) *tensor.Tensor {
	sc := getScratch()
	defer scratchPool.Put(sc)
	a := &sc.arena
	denseEmb := m.Bottom.ForwardInference(a, b.Dense)    // (B, N)
	sparse := lookupPooled(a, m.Embs, b, opt.Embeddings) // (B, F, N)
	sparse = quant.Apply(m.cfg.EmbCommQuant, sparse)
	x := stackDenseSparse(a, denseEmb, sparse) // (B, F+1, N)
	z := m.Interaction.ForwardInference(a, x)
	top := a.Concat(1, denseEmb, z)
	return logits(m.Top.ForwardInference(a, top))
}

// Schema returns the model's feature layout.
func (m *DCN) Schema() data.Schema { return m.cfg.Schema }

// Predict is the read-only forward pass, math-identical to Forward.
func (m *DCN) Predict(b *data.Batch, opt PredictOptions) *tensor.Tensor {
	sc := getScratch()
	defer scratchPool.Put(sc)
	a := &sc.arena
	sparse := lookupPooled(a, m.Embs, b, opt.Embeddings)
	x0 := a.Concat(1, b.Dense, a.Reshape(sparse, b.Size, -1))
	c := m.Cross.ForwardInference(a, x0)
	return logits(m.Deep.ForwardInference(a, c))
}

// Schema returns the model's feature layout.
func (m *DMTDLRM) Schema() data.Schema { return m.cfg.Schema }

// Predict is the read-only forward pass, math-identical to Forward. With a
// TowerCache, per-tower derived features are memoized across requests.
func (m *DMTDLRM) Predict(b *data.Batch, opt PredictOptions) *tensor.Tensor {
	sc := getScratch()
	defer scratchPool.Put(sc)
	a := &sc.arena
	d := m.cfg.D
	denseEmb := m.Bottom.ForwardInference(a, b.Dense)
	flat := towerInput(sc, denseEmb, m.Embs, m.cfg.Towers, m.TMs, b, opt)
	x := a.Reshape(flat, b.Size, flat.Dim(1)/d, d)
	z := m.Interaction.ForwardInference(a, x)
	top := a.Concat(1, denseEmb, z)
	return logits(m.Top.ForwardInference(a, top))
}

// Schema returns the model's feature layout.
func (m *DMTDCN) Schema() data.Schema { return m.cfg.Schema }

// Predict is the read-only forward pass, math-identical to Forward. With a
// TowerCache, per-tower derived features are memoized across requests.
func (m *DMTDCN) Predict(b *data.Batch, opt PredictOptions) *tensor.Tensor {
	sc := getScratch()
	defer scratchPool.Put(sc)
	a := &sc.arena
	x0 := towerInput(sc, b.Dense, m.Embs, m.cfg.Towers, m.TMs, b, opt)
	c := m.Cross.ForwardInference(a, x0)
	return logits(m.Deep.ForwardInference(a, c))
}

// Interface conformance checks.
var (
	_ Predictor = (*DLRM)(nil)
	_ Predictor = (*DCN)(nil)
	_ Predictor = (*DMTDLRM)(nil)
	_ Predictor = (*DMTDCN)(nil)
)
