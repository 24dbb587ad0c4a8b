package models

import (
	"slices"
	"sync"

	"dmt/internal/data"
	"dmt/internal/embeddings"
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
// The caches copy in and out (VecCache) a batch at a time, so Predict
// hands them its own rows and reads hits straight into place, and each
// call takes a cache shard's lock once. Everything else a Predict call
// computes — activations, the tower input, the miss sub-batch, the keys
// and the per-sample dedupe tables — lives in a predictScratch taken from
// a package pool and returned before Predict returns, so a steady stream
// of batches reuses the same memory. Only the returned logits are freshly
// allocated. Training passes no caches: a recording tape needs every
// lookup and tower forward to run.

// VecCache memoizes float32 vectors under namespaced keys (embeddings.NsKey
// of a table index and a bag's hash for pooled bags, of a tower index and
// the tower's bags' hash for tower outputs) — the one shape both serving
// caches share. embeddings.Keyed satisfies it. Each call takes a batch of
// keys, and the cache owns its copies, so callers pass scratch memory both
// ways:
//   - GetRows copies each cached key i's vector into dst.Row(i) and sets
//     hit[i], leaving a missed row alone;
//   - FillRows puts each key i's vector into f.Row(i): the cached copy, or,
//     on a miss, what f.Fill computes there, which it caches at once;
//   - PutRows caches a copy of each src.Row(i) under key i.
type VecCache interface {
	GetRows(keys *embeddings.KeyBatch, dst embeddings.Rows, hit []bool)
	FillRows(keys *embeddings.KeyBatch, f embeddings.RowFiller)
	PutRows(keys *embeddings.KeyBatch, src embeddings.Rows)
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
// intermediate tensor comes from, the cache calls' keys and the bag filler,
// and cachedTowerForward's per-sample tables.
type predictScratch struct {
	tape      nn.Tape
	towerKeys embeddings.KeyBatch // one tower key per sample
	missKeys  embeddings.KeyBatch // one per distinct missed tower key
	bagKeys   embeddings.KeyBatch // one per pooled bag
	bags      bagRows             // the FillRows in flight
	hit       []bool
	slot      []int
	miss      []int
	seen      map[uint64]int
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

// bagRows is a block of pooled bag lookups laid out as lookupPooled's
// (B, F, N) output and a tower's (rows, F_t, N) input are: sample row i's
// k-th feature at out[(i·F+k)·N:]. Its rows are numbered in the order the
// cache sees them, feature-major (byFeature) or sample-major, and it is the
// RowFiller of the FillRows that pools them through a cache.
type bagRows struct {
	embs      []*nn.EmbeddingBag
	b         *data.Batch
	feats     []int // the k-th feature's table; nil: table k
	samples   []int // the batch sample of row i; nil: sample i
	rows      int
	byFeature bool
	out       []float32
}

// nfeat is F, the features per sample row.
func (p *bagRows) nfeat() int {
	if p.feats == nil {
		return len(p.embs)
	}
	return len(p.feats)
}

// at maps lookup j to its sample row i, feature position k and table f.
func (p *bagRows) at(j int) (i, k, f int) {
	if p.byFeature {
		i, k = j%p.rows, j/p.rows
	} else {
		i, k = j/p.nfeat(), j%p.nfeat()
	}
	f = k
	if p.feats != nil {
		f = p.feats[k]
	}
	return i, k, f
}

// bag is lookup j's table and bag.
func (p *bagRows) bag(j int) (int, []int32) {
	i, _, f := p.at(j)
	if p.samples != nil {
		i = p.samples[i]
	}
	return f, bagOf(p.b, f, i)
}

// Row is lookup j's pooled vector, N wide.
func (p *bagRows) Row(j int) []float32 {
	i, k, _ := p.at(j)
	n := p.embs[0].Dim
	lo := (i*p.nfeat() + k) * n
	return p.out[lo : lo+n : lo+n]
}

// Fill pools lookup j into dst (zeroed).
func (p *bagRows) Fill(j int, dst []float32) {
	f, bag := p.bag(j)
	p.embs[f].PoolBagInto(dst, bag)
}

// poolBags pools every lookup of p into p.out: through cache, one FillRows
// over p's lookups in order, when there is one, and straight from the
// tables otherwise.
func poolBags(sc *predictScratch, p bagRows, cache VecCache) {
	n := p.rows * p.nfeat()
	if cache == nil {
		for j := range n {
			p.Fill(j, p.Row(j))
		}
		return
	}
	keys := &sc.bagKeys
	keys.Reset()
	for j := range n {
		f, bag := p.bag(j)
		keys.Add(f, hashBag(fnvOffset, bag))
	}
	sc.bags = p
	cache.FillRows(keys, &sc.bags)
	sc.bags = bagRows{} // the scratch outlives the batch; it must not hold it
}

// cachedTowerForward computes one tower's derived features via tm into
// columns [col, col+tm.OutDim()) of out (B, width), and records the tower's
// lookups and module on t. With a tower cache it memoizes per-sample output
// rows keyed on the tower's bag ids: rows are cacheable because tower
// modules operate per sample on their own feature group only, and misses
// are gathered into one sub-batch so the module still runs batched. The
// cache sees one read over the batch, one fill over the misses' bags and
// one write of the misses' rows. Each tower writing its own column window
// of one buffer is what Concat of per-tower outputs would build.
func cachedTowerForward(t *nn.Tape, sc *predictScratch, embs []*nn.EmbeddingBag, tower int, feats []int, b *data.Batch,
	opt PredictOptions, out *tensor.Tensor, col int, tm towers.Module) {

	outDim := tm.OutDim()
	// Without a tower cache the module runs on every sample, in order. With
	// one, miss lists a representative sample per distinct missing key, and
	// slot[s] is the row of the miss sub-batch that serves sample s, or -1
	// on a cache hit. Duplicate keys within the batch — the common case
	// under skewed load — share one slot, so each distinct feature-group
	// value runs the tower module exactly once.
	var slot, miss []int
	rows := b.Size
	if opt.Towers != nil {
		keys := &sc.towerKeys
		keys.Reset()
		for s := 0; s < b.Size; s++ {
			h := fnvOffset
			for _, f := range feats {
				h = hashBag(h, bagOf(b, f, s))
			}
			keys.Add(tower, h)
		}
		sc.hit = slices.Grow(sc.hit[:0], b.Size)[:b.Size]
		opt.Towers.GetRows(keys, embeddings.Rows{Base: out.Data()[col:], Stride: out.Dim(1), Width: outDim}, sc.hit)
		sc.slot = slices.Grow(sc.slot[:0], b.Size)[:b.Size]
		slot, miss = sc.slot, sc.miss[:0]
		missKeys := &sc.missKeys
		missKeys.Reset()
		seen := sc.seen
		clear(seen)
		for s, key := range keys.Keys {
			if sc.hit[s] {
				slot[s] = -1
				continue
			}
			if sl, ok := seen[key]; ok {
				slot[s] = sl
				continue
			}
			seen[key] = len(miss)
			slot[s] = len(miss)
			miss = append(miss, s)
			missKeys.Keys = append(missKeys.Keys, key)
		}
		sc.miss = miss
		if len(miss) == 0 {
			return
		}
		rows = len(miss)
	}
	ft := len(feats)
	n := embs[0].Dim
	sel := t.New(rows, ft, n)
	poolBags(sc, bagRows{embs: embs, b: b, feats: feats, samples: miss, rows: rows, out: sel.Data()}, opt.Embeddings)
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
			copy(out.Row(s)[col:col+outDim], y.Row(r))
		}
	}
	if opt.Towers != nil {
		opt.Towers.PutRows(&sc.missKeys, embeddings.Rows{Base: y.Data(), Stride: outDim, Width: outDim})
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
