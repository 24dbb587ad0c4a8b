package embeddings

import (
	"sync"

	"dmt/internal/tensor"
)

// CachedStore is a write-back hot-ID cache in front of another Store — the
// training-side user of Keyed. Lookup serves hot rows from the cache and
// fetches only the deduplicated misses from the inner store; Update
// forwards the gradient and re-caches the refreshed rows the inner store
// returns, so the cache stays warm through training (every looked-up row is
// updated every step — invalidation would never hit).
//
// Coherence rides the Store ownership contract: a table's rows only ever
// flow through its single owner rank's cache, so there is no cross-cache
// invalidation problem to solve.
//
// The rows live in a Keyed under NsKey(table, id), which copies them in and
// out a batch at a time, taking each shard's lock once per call: a Lookup
// makes one read and one write per request, an Update one write per update,
// so no traffic locks or allocates per row, and the batch scratch grows only
// to the largest request.
type CachedStore struct {
	inner Store
	rows  *Keyed

	// mu guards idle. The trainer gives every rank its own store, so it is
	// uncontended there; calls may still overlap, because the ownership
	// contract is per TABLE and owners of disjoint tables may share a store.
	mu   sync.Mutex
	idle *lookupScratch // the last finished call's scratch, for the next one
}

// lookupScratch is what one Lookup carries from its probe, across the inner
// fetch, to its write-back; an Update uses only kb.
type lookupScratch struct {
	kb     KeyBatch        // one request's ids' keys for its probe, or one request's or update's rows' for a write
	hit    []bool          // per id of the request being probed: the probe hit it
	reqs   []Req           // per request: the deduplicated missed ids
	ids    []int32         // backing array of every reqs[i].IDs
	missAt []int32         // per requested id: its row in the miss response, -1 for a hit
	pos    map[int32]int32 // missed id -> miss-response row, for the request being probed
}

// Cached wraps inner with a hot-ID cache of up to rows entries, split over
// 8 shards as NewKeyed splits them. rows <= 0 returns inner unchanged
// (caching disabled).
func Cached(inner Store, rows int) Store {
	if rows <= 0 {
		return inner
	}
	return &CachedStore{inner: inner, rows: NewKeyed(rows, 8)}
}

// StatsOf returns the LRU counters of a store built by Cached; a plain
// (uncached) Store yields zeros.
func StatsOf(s Store) CacheStats {
	c, ok := s.(*CachedStore)
	if !ok {
		return CacheStats{}
	}
	return c.rows.Stats()
}

// Dim returns the inner store's dimension.
func (c *CachedStore) Dim() int { return c.inner.Dim() }

// scratch hands out the idle scratch, or a new one.
func (c *CachedStore) scratch() *lookupScratch {
	c.mu.Lock()
	defer c.mu.Unlock()
	sc := c.idle
	c.idle = nil
	if sc == nil {
		sc = &lookupScratch{pos: make(map[int32]int32)}
	}
	return sc
}

// release makes sc the idle scratch.
func (c *CachedStore) release(sc *lookupScratch) {
	c.mu.Lock()
	c.idle = sc
	c.mu.Unlock()
}

// Lookup fills each request from the cache where possible and fetches the
// deduplicated misses from the inner store. The inner Lookup is issued
// unconditionally — even with zero misses — preserving the round symmetry
// remote stores require. The cache sees every requested id probed first, in
// request order, then the fetch, then the fetched rows inserted in request
// order (one insert per distinct missed id): under capacity pressure the LRU
// evicts by insert recency, so this order decides the surviving set and the
// hit/miss counters pinned downstream.
func (c *CachedStore) Lookup(reqs []Req) []*tensor.Tensor {
	dim := c.Dim()
	total := 0
	for _, r := range reqs {
		total += len(r.IDs)
	}
	out := make([]*tensor.Tensor, len(reqs))
	resp := make([]float32, total*dim)

	sc := c.scratch()
	if cap(sc.reqs) < len(reqs) {
		sc.reqs = make([]Req, len(reqs))
	}
	if cap(sc.ids) < total {
		sc.ids = make([]int32, 0, total)
		sc.missAt = make([]int32, total)
	}
	sc.reqs, sc.ids = sc.reqs[:len(reqs)], sc.ids[:0]

	// One read per request, hits copied straight into the response; every
	// probe still comes before the fetch, in request order.
	off := 0
	for i, r := range reqs {
		n := len(r.IDs)
		if cap(sc.hit) < n {
			sc.hit = make([]bool, n)
		}
		sc.kb.Reset()
		for _, id := range r.IDs {
			sc.kb.Add(r.Table, uint64(id))
		}
		c.rows.GetRows(&sc.kb, Rows{Base: resp[off*dim:], Stride: dim, Width: dim}, sc.hit)
		missAt := sc.missAt[off : off+n]
		first := len(sc.ids)
		clear(sc.pos)
		for k, id := range r.IDs {
			if sc.hit[k] {
				missAt[k] = -1
				continue
			}
			p, dup := sc.pos[id]
			if !dup {
				p = int32(len(sc.ids) - first)
				sc.pos[id] = p
				sc.ids = append(sc.ids, id)
			}
			missAt[k] = p
		}
		sc.reqs[i] = Req{Table: r.Table, IDs: sc.ids[first:]}
		out[i] = tensor.FromSlice(resp[off*dim:(off+n)*dim], n, dim)
		off += n
	}

	fetched := c.inner.Lookup(sc.reqs)

	off = 0
	for i, r := range reqs {
		for k, p := range sc.missAt[off : off+len(r.IDs)] {
			if p >= 0 {
				copy(out[i].Row(k), fetched[i].Row(int(p)))
			}
		}
		sc.kb.Reset()
		for _, id := range sc.reqs[i].IDs {
			sc.kb.Add(r.Table, uint64(id))
		}
		c.rows.PutRows(&sc.kb, Rows{Base: fetched[i].Data(), Stride: dim, Width: dim})
		off += len(r.IDs)
	}
	c.release(sc)
	return out
}

// Update forwards to the inner store and write-backs the refreshed rows.
func (c *CachedStore) Update(ups []Upd) []*tensor.Tensor {
	fresh := c.inner.Update(ups)
	dim := c.Dim()
	sc := c.scratch()
	for i, u := range ups {
		sc.kb.Reset()
		for _, row := range u.Rows {
			sc.kb.Add(u.Table, uint64(row))
		}
		c.rows.PutRows(&sc.kb, Rows{Base: fresh[i].Data(), Stride: dim, Width: dim})
	}
	c.release(sc)
	return fresh
}
