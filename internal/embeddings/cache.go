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
// the caller replaces it (Keyed) or overwrites it in place (CachedStore).
// The pointer is valid until the next slot call.
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

// NsKey folds a namespace (table or tower index) into a key so one LRU can
// back every table without cross-table collisions.
func NsKey(ns int, key uint64) uint64 {
	return mix64(uint64(ns)*0x9e3779b97f4a7c15 ^ key)
}

// Keyed is a fixed-capacity LRU cache of float32 vectors under namespaced
// keys — the shape both serving caches (pooled bags per table, tower outputs
// per tower) and the cluster simulator's replicas share. It satisfies
// models.VecCache structurally. The keys are split over independently locked
// shards (one lruCore each) so concurrent serving workers do not serialize
// on one mutex. Values are treated as immutable by contract: callers must
// not modify a slice after PutVec or mutate one returned by GetVec. A nil
// *Keyed (capacity <= 0) disables caching: GetVec misses, PutVec is a no-op,
// Stats and Len are zero.
type Keyed struct {
	shards []*lruShard
	mask   uint64
}

type lruShard struct {
	mu sync.Mutex
	lruCore
}

// NewKeyed builds a cache holding up to capacity vectors, spread over shards
// (see lruGeometry for the rounding); capacity <= 0 yields nil (caching
// disabled).
func NewKeyed(capacity, shards int) *Keyed {
	if capacity <= 0 {
		return nil
	}
	n, per := lruGeometry(capacity, shards)
	k := &Keyed{shards: make([]*lruShard, n), mask: uint64(n - 1)}
	for i := range k.shards {
		k.shards[i] = &lruShard{}
		k.shards[i].init(per)
	}
	return k
}

// shard returns the shard holding (ns, key) and the namespaced key.
func (k *Keyed) shard(ns int, key uint64) (*lruShard, uint64) {
	key = NsKey(ns, key)
	return k.shards[mix64(key)&k.mask], key
}

// GetVec returns the cached vector under (ns, key), marking it most recently
// used.
func (k *Keyed) GetVec(ns int, key uint64) ([]float32, bool) {
	if k == nil {
		return nil, false
	}
	sh, key := k.shard(ns, key)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return sh.get(key)
}

// PutVec caches v under (ns, key), evicting the shard's least recently used
// entry when full. v must not be mutated afterwards.
func (k *Keyed) PutVec(ns int, key uint64, v []float32) {
	if k == nil {
		return
	}
	sh, key := k.shard(ns, key)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	sh.slot(key).val = v
}

// Stats merges the shard counters; zero for a nil cache.
func (k *Keyed) Stats() CacheStats {
	var out CacheStats
	if k == nil {
		return out
	}
	for _, sh := range k.shards {
		sh.mu.Lock()
		out.Add(sh.stats())
		sh.mu.Unlock()
	}
	return out
}

// Len returns the entry count across shards; zero for a nil cache.
func (k *Keyed) Len() int { return k.Stats().Entries }
