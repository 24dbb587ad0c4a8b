package embeddings

import (
	"sync"

	"dmt/internal/tensor"
)

// CachedStore is a write-back hot-ID cache in front of another Store — the
// training-side user of the LRU core. Lookup serves hot rows from the cache
// and fetches only the deduplicated misses from the inner store; Update
// forwards the gradient and re-caches the refreshed rows the inner store
// returns, so the cache stays warm through training (every looked-up row is
// updated every step — invalidation would never hit).
//
// Coherence rides the Store ownership contract: a table's rows only ever
// flow through its single owner rank's cache, so there is no cross-cache
// invalidation problem to solve.
//
// The cache owns its rows: each LRU core keeps one contiguous array with
// entry i's row at i·dim, overwritten in place on every write-back or
// re-keying, so no traffic allocates per row.
type CachedStore struct {
	inner Store

	// mu guards everything below. It is taken once per pass over a call's
	// rows — never per row — and the trainer gives every rank its own store,
	// so it is uncontended there; it exists because the ownership contract is
	// per TABLE, and owners of disjoint tables may share one store.
	mu   sync.Mutex
	lru  *rowLRU
	idle *lookupScratch // the last finished Lookup's scratch, for the next one
}

// rowLRU is Keyed's shard split — same selector, same per-shard capacity,
// hence the same hit, miss and eviction decisions — over bare cores, with
// no lock of its own: CachedStore's one lock covers all of them, and
// LRUSet, the split with no rows, has a single caller.
type rowLRU struct {
	cores []rowCore
	mask  uint64
	dim   int
}

// rowCore is one core and its entries' rows, entry i's at rows[i·dim:],
// sized for a full core up front.
type rowCore struct {
	lruCore
	rows []float32
}

// newRowLRU splits capacity over shards as Keyed does (see lruGeometry),
// with dim floats per entry; dim 0 keeps no rows.
func newRowLRU(capacity, shards, dim int) *rowLRU {
	n, per := lruGeometry(capacity, shards)
	l := &rowLRU{cores: make([]rowCore, n), mask: uint64(n - 1), dim: dim}
	for i := range l.cores {
		l.cores[i].init(per)
		l.cores[i].rows = make([]float32, (per+1)*dim)
	}
	return l
}

func (l *rowLRU) core(key uint64) *rowCore { return &l.cores[mix64(key)&l.mask] }

// stats merges the cores' counters.
func (l *rowLRU) stats() CacheStats {
	var out CacheStats
	for i := range l.cores {
		out.Add(l.cores[i].stats())
	}
	return out
}

// Get returns the cached row under key, marking it most recently used. The
// slice is the cache's own buffer: valid until the next write to the cache.
func (l *rowLRU) Get(key uint64) ([]float32, bool) {
	c := l.core(key)
	i, ok := c.get(key)
	if !ok {
		return nil, false
	}
	return c.rows[int(i)*l.dim:][:l.dim:l.dim], true
}

// put copies row into key's cache entry.
func (l *rowLRU) put(key uint64, row []float32) {
	c := l.core(key)
	copy(c.rows[int(c.slot(key))*l.dim:][:l.dim:l.dim], row)
}

// lookupScratch is what one Lookup carries from its probe pass, across the
// inner fetch, to its fill pass.
type lookupScratch struct {
	reqs   []Req           // per request: the deduplicated missed ids
	ids    []int32         // backing array of every reqs[i].IDs
	missAt []int32         // per requested id: its row in the miss response, -1 for a hit
	pos    map[int32]int32 // missed id -> miss-response row, for the request being probed
}

// Cached wraps inner with a hot-ID cache of up to rows entries. rows <= 0
// returns inner unchanged (caching disabled).
func Cached(inner Store, rows int) Store {
	if rows <= 0 {
		return inner
	}
	return &CachedStore{inner: inner, lru: newRowLRU(rows, 8, inner.Dim())}
}

// StatsOf returns the LRU counters of a store built by Cached; a plain
// (uncached) Store yields zeros.
func StatsOf(s Store) CacheStats {
	c, ok := s.(*CachedStore)
	if !ok {
		return CacheStats{}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.lru.stats()
}

// Dim returns the inner store's dimension.
func (c *CachedStore) Dim() int { return c.lru.dim }

// scratch hands out the idle scratch (or a new one) sized for nReqs
// requests over total ids. Called with mu held.
func (c *CachedStore) scratch(nReqs, total int) *lookupScratch {
	sc := c.idle
	c.idle = nil
	if sc == nil {
		sc = &lookupScratch{pos: make(map[int32]int32)}
	}
	if cap(sc.reqs) < nReqs {
		sc.reqs = make([]Req, nReqs)
	}
	if cap(sc.ids) < total {
		sc.ids = make([]int32, 0, total)
		sc.missAt = make([]int32, total)
	}
	sc.reqs, sc.ids = sc.reqs[:nReqs], sc.ids[:0]
	return sc
}

// Lookup fills each request from the cache where possible and fetches the
// deduplicated misses from the inner store. The inner Lookup is issued
// unconditionally — even with zero misses — preserving the round symmetry
// remote stores require. The cache sees every request probed first, then
// the fetch, then the fetched rows inserted in request order (one insert
// per distinct missed id): under capacity pressure the LRU evicts by insert
// recency, so this order decides the surviving set and the hit/miss
// counters pinned downstream.
func (c *CachedStore) Lookup(reqs []Req) []*tensor.Tensor {
	dim := c.lru.dim
	total := 0
	for _, r := range reqs {
		total += len(r.IDs)
	}
	out := make([]*tensor.Tensor, len(reqs))
	resp := make([]float32, total*dim)

	c.mu.Lock()
	sc := c.scratch(len(reqs), total)
	off := 0
	for i, r := range reqs {
		n := len(r.IDs)
		rows := tensor.FromSlice(resp[off*dim:(off+n)*dim], n, dim)
		missAt := sc.missAt[off : off+n]
		first := len(sc.ids)
		clear(sc.pos)
		for k, id := range r.IDs {
			// A hit is copied out now: the entry's buffer is overwritten by
			// whatever the cache stores there next.
			if v, ok := c.lru.Get(NsKey(r.Table, uint64(id))); ok {
				copy(rows.Row(k), v)
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
		out[i] = rows
		off += n
	}
	c.mu.Unlock()

	fetched := c.inner.Lookup(sc.reqs)

	c.mu.Lock()
	off = 0
	for i, r := range reqs {
		for k, p := range sc.missAt[off : off+len(r.IDs)] {
			if p >= 0 {
				copy(out[i].Row(k), fetched[i].Row(int(p)))
			}
		}
		for p, id := range sc.reqs[i].IDs {
			c.lru.put(NsKey(r.Table, uint64(id)), fetched[i].Row(p))
		}
		off += len(r.IDs)
	}
	c.idle = sc
	c.mu.Unlock()
	return out
}

// Update forwards to the inner store and write-backs the refreshed rows.
func (c *CachedStore) Update(ups []Upd) []*tensor.Tensor {
	fresh := c.inner.Update(ups)
	c.mu.Lock()
	for i, u := range ups {
		for j, row := range u.Rows {
			c.lru.put(NsKey(u.Table, uint64(row)), fresh[i].Row(j))
		}
	}
	c.mu.Unlock()
	return fresh
}
