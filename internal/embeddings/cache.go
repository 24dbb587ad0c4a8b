package embeddings

import "sync"

// CacheStats is a point-in-time snapshot of a cache's counters.
type CacheStats struct {
	Hits, Misses, Evictions uint64
	Entries                 int
}

// HitRate returns hits/(hits+misses), or 0 before any lookup.
func (s CacheStats) HitRate() float64 {
	total := s.Hits + s.Misses
	if total == 0 {
		return 0
	}
	return float64(s.Hits) / float64(total)
}

// Add accumulates another snapshot — merging shards internally, or whole
// caches when a caller aggregates a fleet of them (the cluster simulator's
// per-replica caches roll up this way).
func (s *CacheStats) Add(o CacheStats) {
	s.Hits += o.Hits
	s.Misses += o.Misses
	s.Evictions += o.Evictions
	s.Entries += o.Entries
}

// lruCore is one unlocked LRU: the building block both cache users wrap.
// Entries live in one slice and are linked into a recency ring by int32
// indices around the sentinel ents[0] (next = most recent, prev = least
// recent), so a cached vector costs one slice element instead of a boxed
// entry plus a list node, and a hit or refresh relinks indices without
// touching the heap. The slice grows on demand up to capacity+1; once full,
// an insert re-keys the least recent entry in place. There is no other
// removal, so the live entries are always ents[1:].
type lruCore struct {
	capacity                int
	ents                    []lruEntry
	index                   map[uint64]int32 // key -> position in ents
	hits, misses, evictions uint64
}

type lruEntry struct {
	key        uint64
	val        []float32
	prev, next int32
}

// lruGeometry splits capacity over shards (rounded up to a power of two; at
// least one entry per shard). Per-shard capacity rounds up, so the true
// limit can exceed capacity by up to shards-1 entries.
func lruGeometry(capacity, shards int) (n, per int) {
	if shards < 1 {
		shards = 1
	}
	n = 1
	for n < shards {
		n <<= 1
	}
	if n > capacity {
		n = 1
		for n*2 <= capacity {
			n <<= 1
		}
	}
	return n, (capacity + n - 1) / n
}

func (c *lruCore) init(capacity int) {
	c.capacity = capacity
	c.ents = make([]lruEntry, 1, 8)
	c.index = make(map[uint64]int32, capacity)
}

func (c *lruCore) len() int { return len(c.ents) - 1 }

// linkFront makes the unlinked entry i the most recent.
func (c *lruCore) linkFront(i int32) {
	head := c.ents[0].next
	c.ents[i].prev, c.ents[i].next = 0, head
	c.ents[head].prev = i
	c.ents[0].next = i
}

func (c *lruCore) unlink(i int32) {
	e := &c.ents[i]
	c.ents[e.prev].next, c.ents[e.next].prev = e.next, e.prev
}

// get returns key's value and marks it most recently used.
func (c *lruCore) get(key uint64) ([]float32, bool) {
	i, ok := c.index[key]
	if !ok {
		c.misses++
		return nil, false
	}
	c.hits++
	if c.ents[0].next != i {
		c.unlink(i)
		c.linkFront(i)
	}
	return c.ents[i].val, true
}

// slot returns the entry holding key after the call, marked most recently
// used: key's own entry (a refresh), a new one, or — when the core is full —
// the least recent entry re-keyed. val is whatever the entry held before;
// the caller replaces it (ShardedLRU) or overwrites it in place
// (CachedStore). The pointer is valid until the next slot call.
func (c *lruCore) slot(key uint64) *lruEntry {
	i, ok := c.index[key]
	if ok {
		c.unlink(i)
	} else {
		if c.len() < c.capacity {
			c.ents = append(c.ents, lruEntry{})
			i = int32(len(c.ents) - 1)
		} else {
			i = c.ents[0].prev
			c.unlink(i)
			delete(c.index, c.ents[i].key)
			c.evictions++
		}
		c.ents[i].key = key
		c.index[key] = i
	}
	c.linkFront(i)
	return &c.ents[i]
}

func (c *lruCore) stats() CacheStats {
	return CacheStats{Hits: c.hits, Misses: c.misses, Evictions: c.evictions, Entries: c.len()}
}

// ShardedLRU is a fixed-capacity LRU cache of float32 vectors keyed by
// uint64, split into independently locked shards (one lruCore each) so
// concurrent serving workers do not serialize on one mutex. Values are
// treated as immutable by contract: callers must not modify a slice after
// Put or mutate one returned by Get.
type ShardedLRU struct {
	shards []*lruShard
	mask   uint64
}

type lruShard struct {
	mu sync.Mutex
	lruCore
}

// NewShardedLRU builds a cache holding up to capacity entries, spread over
// shards (see lruGeometry for the rounding). A capacity of zero or less
// yields a nil cache, on which Get and Put are no-ops — callers can disable
// caching without branching.
func NewShardedLRU(capacity, shards int) *ShardedLRU {
	if capacity <= 0 {
		return nil
	}
	n, per := lruGeometry(capacity, shards)
	c := &ShardedLRU{shards: make([]*lruShard, n), mask: uint64(n - 1)}
	for i := range c.shards {
		c.shards[i] = &lruShard{}
		c.shards[i].init(per)
	}
	return c
}

// splitmix finalizer decorrelates the shard selector from the low key bits,
// which the per-table/per-tower namespacing already perturbs.
func mix64(z uint64) uint64 {
	z ^= z >> 30
	z *= 0xbf58476d1ce4e5b9
	z ^= z >> 27
	z *= 0x94d049bb133111eb
	z ^= z >> 31
	return z
}

func (c *ShardedLRU) shard(key uint64) *lruShard {
	return c.shards[mix64(key)&c.mask]
}

// Get returns the cached vector for key, marking it most recently used.
func (c *ShardedLRU) Get(key uint64) ([]float32, bool) {
	if c == nil {
		return nil, false
	}
	sh := c.shard(key)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return sh.get(key)
}

// Put inserts or refreshes key, evicting the shard's least recently used
// entry when full.
func (c *ShardedLRU) Put(key uint64, val []float32) {
	if c == nil {
		return
	}
	sh := c.shard(key)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	sh.slot(key).val = val
}

// Len returns the current number of entries across shards.
func (c *ShardedLRU) Len() int {
	return c.Stats().Entries
}

// Stats merges the shard counters.
func (c *ShardedLRU) Stats() CacheStats {
	var out CacheStats
	if c == nil {
		return out
	}
	for _, sh := range c.shards {
		sh.mu.Lock()
		out.Add(sh.stats())
		sh.mu.Unlock()
	}
	return out
}

// NsKey folds a namespace (table or tower index) into a key so one LRU can
// back every table without cross-table collisions.
func NsKey(ns int, key uint64) uint64 {
	return mix64(uint64(ns)*0x9e3779b97f4a7c15 ^ key)
}

// Keyed wraps a ShardedLRU with namespaced vector access — the shape both
// serving caches (pooled bags per table, tower outputs per tower) and the
// training-side hot-ID cache share. It satisfies models.VecCache
// structurally. A nil *Keyed (capacity <= 0) disables caching: Get misses,
// Put is a no-op, Stats is zero.
type Keyed struct {
	lru *ShardedLRU
}

// NewKeyed builds a namespaced cache of up to capacity vectors over the
// given shard count; capacity <= 0 yields nil (caching disabled).
func NewKeyed(capacity, shards int) *Keyed {
	lru := NewShardedLRU(capacity, shards)
	if lru == nil {
		return nil
	}
	return &Keyed{lru: lru}
}

// GetVec returns the cached vector under (ns, key).
func (k *Keyed) GetVec(ns int, key uint64) ([]float32, bool) {
	if k == nil {
		return nil, false
	}
	return k.lru.Get(NsKey(ns, key))
}

// PutVec caches v under (ns, key). v must not be mutated afterwards.
func (k *Keyed) PutVec(ns int, key uint64, v []float32) {
	if k == nil {
		return
	}
	k.lru.Put(NsKey(ns, key), v)
}

// Stats merges the underlying shard counters; zero for a nil cache.
func (k *Keyed) Stats() CacheStats {
	if k == nil {
		return CacheStats{}
	}
	return k.lru.Stats()
}

// Len returns the entry count; zero for a nil cache.
func (k *Keyed) Len() int {
	if k == nil {
		return 0
	}
	return k.lru.Len()
}
