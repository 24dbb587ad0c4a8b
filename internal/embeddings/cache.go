package embeddings

import (
	"math/bits"
	"slices"
	"sync"
)

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

// lruCore is one unlocked LRU: the building block every cache wraps.
// Entries live in one slice and are linked into a recency ring by int32
// indices around the sentinel ents[0] (next = most recent, prev = least
// recent); an entry holds its key and links and nothing else, so the slice
// has no pointer for the GC to scan, and each user keeps its values beside
// the core, indexed by entry position. The slice grows on demand up to
// capacity+1; once full, an insert re-keys the least recent entry in place.
// There is no other removal, so the live entries are always ents[1:].
//
// The key index is an open-addressed table of entry positions (0, the
// sentinel's, marks an empty cell): linear probing from a multiplicative
// hash of the key, at most a quarter full, with backward-shift deletion, so
// a hit, a refresh or an evicting insert allocates nothing and leaves no
// tombstone.
type lruCore struct {
	capacity                int
	ents                    []lruEntry
	index                   []int32 // power-of-two cells, >= 4*capacity
	shift                   uint    // 64 - log2(len(index)): a hash's top bits pick the home cell
	hits, misses, evictions uint64
}

type lruEntry struct {
	key        uint64
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
	cells := 4
	for cells < 4*capacity {
		cells <<= 1
	}
	c.index = make([]int32, cells)
	c.shift = uint(64 - bits.TrailingZeros(uint(cells)))
}

func (c *lruCore) len() int { return len(c.ents) - 1 }

// home is key's first probe cell (Fibonacci hashing).
func (c *lruCore) home(key uint64) uint32 {
	return uint32((key * 0x9e3779b97f4a7c15) >> c.shift)
}

// find returns the cell holding key and its entry position, or, when key is
// absent, the empty cell that ends its probe and 0.
func (c *lruCore) find(key uint64) (cell uint32, i int32) {
	mask := uint32(len(c.index) - 1)
	for cell = c.home(key); ; cell = (cell + 1) & mask {
		i = c.index[cell]
		if i == 0 || c.ents[i].key == key {
			return cell, i
		}
	}
}

// del empties cell and shifts later members of its probe run back into the
// hole, so every remaining key stays reachable from its home cell without
// tombstones.
func (c *lruCore) del(cell uint32) {
	mask := uint32(len(c.index) - 1)
	for j := cell; ; {
		c.index[cell] = 0
		for {
			j = (j + 1) & mask
			i := c.index[j]
			if i == 0 {
				return
			}
			// The entry at j may fill the hole unless its home lies
			// cyclically in (cell, j].
			if (j-c.home(c.ents[i].key))&mask >= (j-cell)&mask {
				c.index[cell] = i
				cell = j
				break
			}
		}
	}
}

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

// promote marks entry i most recently used.
func (c *lruCore) promote(i int32) {
	if c.ents[0].next != i {
		c.unlink(i)
		c.linkFront(i)
	}
}

// get returns the position of key's entry and marks it most recently used.
func (c *lruCore) get(key uint64) (int32, bool) {
	_, i := c.find(key)
	if i == 0 {
		c.misses++
		return 0, false
	}
	c.hits++
	c.promote(i)
	return i, true
}

// slot returns the position of the entry holding key after the call, marked
// most recently used: key's own entry (a refresh), or a new one as insert
// makes it. The value stored at that position is whatever the entry held
// before; the caller replaces or overwrites it.
func (c *lruCore) slot(key uint64) int32 {
	cell, i := c.find(key)
	if i == 0 {
		return c.insert(cell, key)
	}
	c.promote(i)
	return i
}

// getOrInsert is get followed, on a miss, by slot, in one probe: it counts
// the hit or miss as get does, and a missed key is inserted into the empty
// cell its probe ended on. It returns key's entry position, most recently
// used, and whether key was already cached.
func (c *lruCore) getOrInsert(key uint64) (int32, bool) {
	cell, i := c.find(key)
	if i == 0 {
		c.misses++
		return c.insert(cell, key), false
	}
	c.hits++
	c.promote(i)
	return i, true
}

// insert adds the absent key, whose probe ended on the empty cell, as the
// most recent entry and returns its position: the next one, one past the
// last, or — when the core is full — the least recent entry re-keyed.
func (c *lruCore) insert(cell uint32, key uint64) int32 {
	var i int32
	if c.len() < c.capacity {
		c.ents = append(c.ents, lruEntry{key: key})
		i = int32(len(c.ents) - 1)
		c.index[cell] = i
	} else {
		i = c.ents[0].prev
		c.unlink(i)
		// Index key first, into the empty cell its probe ended on, then
		// delete the victim's cell: the backward shift keeps every key
		// reachable, the new one included.
		victim, _ := c.find(c.ents[i].key)
		c.ents[i].key = key
		c.index[cell] = i
		c.del(victim)
		c.evictions++
	}
	c.linkFront(i)
	return i
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
// keys — the repo's one row cache: the serving caches' pooled bags per
// table and tower outputs per tower, and CachedStore's embedding rows per
// table. It satisfies models.VecCache structurally. The keys are split
// over independently locked shards (one lruCore each) so concurrent
// serving workers do not serialize on one mutex.
//
// Its callers reach it a batch at a time: GetRows reads rows,
// FillRows reads or computes and caches them, PutRows writes them. Each
// call sorts its keys by shard, keeping their call order within a shard,
// and takes each shard's lock once, so a shard sees exactly the operations
// the same keys made one call at a time would make, in the same order.
// GetVec and PutVec are those one-key operations.
//
// Keyed owns its values. Each shard keeps them in one []float32 slab, entry
// i's vector at i·stride with its own length beside it: writes copy in and
// reads copy out, both under the shard's lock, so callers keep their
// buffers and an insert that evicts overwrites the victim's row in place,
// allocating nothing. The slab grows with the live entries (see reserve),
// never past the shard's capacity, and a vector longer than the stride
// widens every row once. A nil *Keyed (capacity <= 0) disables caching:
// lookups miss, writes are no-ops, FillRows computes every row, Stats and
// Len are zero.
type Keyed struct {
	shards []*lruShard
	mask   uint64
}

type lruShard struct {
	mu sync.Mutex
	lruCore
	slab   []float32 // entry i's vector at slab[i*stride:], lens[i] long
	lens   []int32   // lens[0] is the sentinel's
	stride int
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
		k.shards[i] = &lruShard{lens: make([]int32, 1)}
		k.shards[i].init(per)
	}
	return k
}

// shardOf is the index of the shard holding the namespaced key.
func (k *Keyed) shardOf(key uint64) int { return int(mix64(key) & k.mask) }

// shard returns the shard holding (ns, key) and the namespaced key.
func (k *Keyed) shard(ns int, key uint64) (*lruShard, uint64) {
	key = NsKey(ns, key)
	return k.shards[k.shardOf(key)], key
}

// vec is entry i's vector, a view of the slab.
func (sh *lruShard) vec(i int32) []float32 {
	lo := int(i) * sh.stride
	hi := lo + int(sh.lens[i])
	return sh.slab[lo:hi:hi]
}

// store copies v into entry i's row, appending i's length cell if i is a
// new entry one past the last.
func (sh *lruShard) store(i int32, v []float32) {
	sh.reserve(len(v), int(i)+1)
	if int(i) == len(sh.lens) {
		sh.lens = append(sh.lens, 0)
	}
	sh.lens[i] = int32(len(v))
	copy(sh.slab[int(i)*sh.stride:], v)
}

// KeyBatch is the keys of one batch call on a Keyed, in call order, with
// the memory the call sorts them by shard in. Keys are namespaced (NsKey):
// Add namespaces one, and keys already namespaced may be appended to Keys
// directly. A caller keeps one per call site and refills it, so a steady
// stream of calls allocates nothing; it serves one call at a time.
type KeyBatch struct {
	Keys  []uint64
	order []int32 // positions in Keys, grouped by shard, in call order within each
	ends  []int32 // shard s's positions are order[ends[s-1]:ends[s]] (from 0 for shard 0)
}

// Reset empties the batch, keeping its memory.
func (kb *KeyBatch) Reset() { kb.Keys = kb.Keys[:0] }

// Add appends key under namespace ns.
func (kb *KeyBatch) Add(ns int, key uint64) { kb.Keys = append(kb.Keys, NsKey(ns, key)) }

// Rows is a strided view of vectors, the caller's memory a batch call reads
// or writes: vector i is Base[i·Stride:][:Width].
type Rows struct {
	Base          []float32
	Stride, Width int
}

// Row is vector i.
func (r Rows) Row(i int) []float32 {
	lo := i * r.Stride
	return r.Base[lo : lo+r.Width : lo+r.Width]
}

// A RowFiller places and computes the vectors of a FillRows call.
type RowFiller interface {
	// Row is where vector i goes.
	Row(i int) []float32
	// Fill computes the missed vector i into dst, which is Row(i).
	Fill(i int, dst []float32)
}

// byShard groups kb's positions by shard, each group in call order (see
// group). A counting sort, O(keys + shards).
func (k *Keyed) byShard(kb *KeyBatch) {
	kb.ends = slices.Grow(kb.ends[:0], len(k.shards))[:len(k.shards)]
	clear(kb.ends)
	for _, key := range kb.Keys {
		kb.ends[k.shardOf(key)]++
	}
	var sum int32
	for s, n := range kb.ends {
		kb.ends[s] = sum // shard s's start, advanced to its end below
		sum += n
	}
	kb.order = slices.Grow(kb.order[:0], len(kb.Keys))[:len(kb.Keys)]
	for i, key := range kb.Keys {
		s := k.shardOf(key)
		kb.order[kb.ends[s]] = int32(i)
		kb.ends[s]++
	}
}

// group is shard s's positions in Keys, in call order, after byShard.
func (kb *KeyBatch) group(s int) []int32 {
	var lo int32
	if s > 0 {
		lo = kb.ends[s-1]
	}
	return kb.order[lo:kb.ends[s]]
}

// GetRows copies the vector cached under each key i into dst.Row(i), as
// copy does, marks it most recently used and sets hit[i]; a missed key
// clears hit[i] and leaves its row alone. hit holds at least one flag per
// key.
func (k *Keyed) GetRows(kb *KeyBatch, dst Rows, hit []bool) {
	if k == nil {
		clear(hit[:len(kb.Keys)])
		return
	}
	k.byShard(kb)
	for s, sh := range k.shards {
		if at := kb.group(s); len(at) > 0 {
			sh.getRows(kb.Keys, at, dst, hit)
		}
	}
}

func (sh *lruShard) getRows(keys []uint64, at []int32, dst Rows, hit []bool) {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	for _, i := range at {
		e, ok := sh.get(keys[i])
		if ok {
			copy(dst.Row(int(i)), sh.vec(e))
		}
		hit[i] = ok
	}
}

// FillRows puts each key i's vector into f.Row(i): the cached copy on a
// hit; on a miss, what f.Fill computes there, which is cached at once, so
// a later key of the call hits it. Each row is what GetVec and, on a
// miss, the fill and a PutVec would leave, and each shard's lock is held
// across its keys' fills.
func (k *Keyed) FillRows(kb *KeyBatch, f RowFiller) {
	if k == nil {
		for i := range kb.Keys {
			f.Fill(i, f.Row(i))
		}
		return
	}
	k.byShard(kb)
	for s, sh := range k.shards {
		if at := kb.group(s); len(at) > 0 {
			sh.fillRows(kb.Keys, at, f)
		}
	}
}

func (sh *lruShard) fillRows(keys []uint64, at []int32, f RowFiller) {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	for _, i := range at {
		dst := f.Row(int(i))
		e, ok := sh.getOrInsert(keys[i])
		if ok {
			copy(dst, sh.vec(e))
			continue
		}
		f.Fill(int(i), dst)
		sh.store(e, dst)
	}
}

// PutRows caches a copy of src.Row(i) under each key i, evicting the
// shard's least recently used entry when full. The caller may reuse src at
// once.
func (k *Keyed) PutRows(kb *KeyBatch, src Rows) {
	if k == nil {
		return
	}
	k.byShard(kb)
	for s, sh := range k.shards {
		if at := kb.group(s); len(at) > 0 {
			sh.putRows(kb.Keys, at, src)
		}
	}
}

func (sh *lruShard) putRows(keys []uint64, at []int32, src Rows) {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	for _, i := range at {
		sh.store(sh.slot(keys[i]), src.Row(int(i)))
	}
}

// GetVec returns the vector cached under (ns, key), marking it most recently
// used. The result is a view of the cache's storage, valid only until the
// next write to this cache (which may overwrite or move it) and never to be
// written: it suits a single goroutine that checks presence or reads the
// value at once. Concurrent readers use GetRows.
func (k *Keyed) GetVec(ns int, key uint64) ([]float32, bool) {
	if k == nil {
		return nil, false
	}
	sh, key := k.shard(ns, key)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if i, ok := sh.get(key); ok {
		return sh.vec(i), true
	}
	return nil, false
}

// PutVec caches a copy of v under (ns, key), evicting the shard's least
// recently used entry when full. The caller may reuse v at once.
func (k *Keyed) PutVec(ns int, key uint64, v []float32) {
	if k == nil {
		return
	}
	sh, key := k.shard(ns, key)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	sh.store(sh.slot(key), v)
}

// slabDoubling is the slab size, in float32s, below which a slab doubles
// when it grows: a few small steps instead of dozens of quarter steps, for
// at most 16 KiB of slack per shard.
const slabDoubling = 1 << 12

// reserve makes room for rows entries of width vectors: it widens the stride
// to width if that is longer, moving every live row, and grows the slab to
// at least rows rows — doubling while small, then by a quarter at a time,
// so appending entry by entry costs amortized O(1) copies — but never past
// the shard's capacity plus the sentinel's row, so a full cache holds no
// slack. The length cells grow with the slab, to the same row count.
func (sh *lruShard) reserve(width, rows int) {
	stride := max(sh.stride, width)
	have := 0
	if sh.stride > 0 {
		have = len(sh.slab) / sh.stride
	}
	if stride == sh.stride && rows <= have {
		return
	}
	if rows > have {
		grow := have / 4
		if have*stride < slabDoubling {
			grow = have
		}
		rows = min(max(rows, have+grow), sh.capacity+1)
	} else {
		rows = have
	}
	slab := make([]float32, rows*stride)
	for j, n := range sh.lens {
		copy(slab[j*stride:j*stride+int(n)], sh.vec(int32(j)))
	}
	sh.slab, sh.stride = slab, stride
	if rows > cap(sh.lens) {
		sh.lens = append(make([]int32, 0, rows), sh.lens...)
	}
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

// LRUSet is a presence-only LRU over namespaced keys, for a single
// goroutine that only asks whether a key is cached (the cluster
// simulator's replicas). It splits keys over bare cores as Keyed splits
// them over shards, so it makes exactly the hit, miss and eviction
// decisions of a Keyed of the same capacity and shards driven by GetVec
// and, on a miss, PutVec — but in one probe per key, with no lock and no
// values. A nil *LRUSet (capacity <= 0) disables caching: every Touch
// misses and Stats is zero.
type LRUSet struct {
	cores []lruCore
	mask  uint64
}

// NewLRUSet builds a set of up to capacity keys, spread over shards as
// NewKeyed spreads them; capacity <= 0 yields nil (caching disabled).
func NewLRUSet(capacity, shards int) *LRUSet {
	if capacity <= 0 {
		return nil
	}
	n, per := lruGeometry(capacity, shards)
	s := &LRUSet{cores: make([]lruCore, n), mask: uint64(n - 1)}
	for i := range s.cores {
		s.cores[i].init(per)
	}
	return s
}

// Touch reports whether (ns, key) was cached and leaves it cached, most
// recently used, evicting the shard's least recently used key when full.
func (s *LRUSet) Touch(ns int, key uint64) bool {
	if s == nil {
		return false
	}
	key = NsKey(ns, key)
	_, hit := s.cores[mix64(key)&s.mask].getOrInsert(key)
	return hit
}

// Stats merges the shard counters; zero for a nil set.
func (s *LRUSet) Stats() CacheStats {
	var out CacheStats
	if s == nil {
		return out
	}
	for i := range s.cores {
		out.Add(s.cores[i].stats())
	}
	return out
}
