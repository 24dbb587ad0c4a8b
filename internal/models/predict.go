package models

import (
	"slices"
	"sync"

	"dmt/internal/data"
	"dmt/internal/nn"
	"dmt/internal/tensor"
	"dmt/internal/towers"
)

// This file is the serving path. Predict runs each model's one forward
// body, the one Forward runs, on a tape that records nothing, so a single
// model instance answers many concurrent requests (package serve) while it
// trains from its owning goroutine. Two memoization hooks exploit request
// skew:
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
// Training passes no caches: a recording tape needs every lookup and tower
// forward to run.

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

// predictScratch is one Predict call's reusable memory, taken from a pool
// and put back by predict: the non-recording tape whose arena every
// intermediate tensor comes from, and cachedTowerForward's per-sample
// tables.
type predictScratch struct {
	tape    nn.Tape
	slot    []int
	miss    []int
	missKey []uint64
	seen    map[uint64]int
}

var scratchPool = sync.Pool{New: func() any {
	return &predictScratch{tape: nn.Tape{Arena: new(tensor.Arena)}, seen: make(map[uint64]int)}
}}

// predict is every Predict: it runs a model's forward body on a pooled
// scratch's tape and copies the (B, 1) logits out of the arena into a
// fresh (B) tensor, so the result outlives the scratch.
func predict(b *data.Batch, opt PredictOptions, forward func(*nn.Tape, *predictScratch, *data.Batch, PredictOptions) *tensor.Tensor) *tensor.Tensor {
	sc := scratchPool.Get().(*predictScratch)
	defer scratchPool.Put(sc)
	sc.tape.Reset()
	y := forward(&sc.tape, sc, b, opt)
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
	lo, hi := nn.BagBounds(b.Offsets[f], s, len(b.Indices[f]))
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

// cachedTowerForward computes one tower's derived features via tm into
// columns [col, col+tm.OutDim()) of out (B, width), and records the tower's
// lookups and module on t. With a tower cache it memoizes per-sample output
// rows keyed on the tower's bag ids: rows are cacheable because tower
// modules operate per sample on their own feature group only, and misses
// are gathered into one sub-batch so the module still runs batched. Each
// tower writing its own column window of one buffer is what Concat of
// per-tower outputs would build.
func cachedTowerForward(t *nn.Tape, sc *predictScratch, embs []*nn.EmbeddingBag, tower int, feats []int, b *data.Batch,
	opt PredictOptions, out *tensor.Tensor, col int, tm towers.Module) {

	outDim := tm.OutDim()
	row := func(s int) []float32 { return out.Row(s)[col : col+outDim] }
	// Without a tower cache the module runs on every sample, in order. With
	// one, miss lists a representative sample per distinct missing key, and
	// slot[s] is the row of the miss sub-batch that serves sample s, or -1
	// on a cache hit. Duplicate keys within the batch — the common case
	// under skewed load — share one slot, so each distinct feature-group
	// value runs the tower module exactly once.
	var slot, miss []int
	var missKey []uint64
	rows := b.Size
	if opt.Towers != nil {
		sc.slot = slices.Grow(sc.slot[:0], b.Size)[:b.Size]
		slot, miss, missKey = sc.slot, sc.miss[:0], sc.missKey[:0]
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
		if len(miss) == 0 {
			return
		}
		rows = len(miss)
	}
	ft := len(feats)
	n := embs[0].Dim
	sel := t.New(rows, ft, n)
	for i := 0; i < rows; i++ {
		s := i
		if miss != nil {
			s = miss[i]
		}
		for k, f := range feats {
			dst := sel.Data()[(i*ft+k)*n : (i*ft+k+1)*n]
			pooledBagInto(dst, embs[f], f, bagOf(b, f, s), opt.Embeddings)
		}
	}
	for _, f := range feats {
		embs[f].Record(t, b.Indices[f], b.Offsets[f])
	}
	y := tm.ForwardOn(t, sel) // (rows, outDim)
	for s := 0; s < b.Size; s++ {
		r := s
		if slot != nil {
			r = slot[s]
		}
		if r >= 0 {
			copy(row(s), y.Row(r))
		}
	}
	for mi, key := range missKey {
		opt.Towers.PutVec(tower, key, y.Row(mi))
	}
}

// towerInput is the (B, width) input of a DMT model's global interaction,
// from t's arena: lead's columns first, then each tower's output window,
// which cachedTowerForward fills.
func towerInput[TM towers.Module](t *nn.Tape, sc *predictScratch, lead *tensor.Tensor, embs []*nn.EmbeddingBag, towerFeats [][]int, tms []TM, b *data.Batch, opt PredictOptions) *tensor.Tensor {
	width := lead.Dim(1)
	for _, tm := range tms {
		width += tm.OutDim()
	}
	out := t.New(b.Size, width)
	for s := 0; s < b.Size; s++ {
		copy(out.Row(s), lead.Row(s))
	}
	col := lead.Dim(1)
	for tw, feats := range towerFeats {
		cachedTowerForward(t, sc, embs, tw, feats, b, opt, out, col, tms[tw])
		col += tms[tw].OutDim()
	}
	return out
}

// Schema returns the model's feature layout.
func (m *DLRM) Schema() data.Schema { return m.cfg.Schema }

// Predict is the read-only forward pass: Forward's body on a pooled tape.
func (m *DLRM) Predict(b *data.Batch, opt PredictOptions) *tensor.Tensor {
	return predict(b, opt, m.forward)
}

// Schema returns the model's feature layout.
func (m *DCN) Schema() data.Schema { return m.cfg.Schema }

// Predict is the read-only forward pass: Forward's body on a pooled tape.
func (m *DCN) Predict(b *data.Batch, opt PredictOptions) *tensor.Tensor {
	return predict(b, opt, m.forward)
}

// Schema returns the model's feature layout.
func (m *DMTDLRM) Schema() data.Schema { return m.cfg.Schema }

// Predict is the read-only forward pass: Forward's body on a pooled tape.
// With a tower cache, per-tower derived features are memoized across
// requests.
func (m *DMTDLRM) Predict(b *data.Batch, opt PredictOptions) *tensor.Tensor {
	return predict(b, opt, m.forward)
}

// Schema returns the model's feature layout.
func (m *DMTDCN) Schema() data.Schema { return m.cfg.Schema }

// Predict is the read-only forward pass: Forward's body on a pooled tape.
// With a tower cache, per-tower derived features are memoized across
// requests.
func (m *DMTDCN) Predict(b *data.Batch, opt PredictOptions) *tensor.Tensor {
	return predict(b, opt, m.forward)
}

// Interface conformance checks.
var (
	_ Model = (*DLRM)(nil)
	_ Model = (*DCN)(nil)
	_ Model = (*DMTDLRM)(nil)
	_ Model = (*DMTDCN)(nil)
)
