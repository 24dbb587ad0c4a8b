package embeddings

import (
	"fmt"
	"slices"
	"testing"

	"dmt/internal/tensor"
)

// The Keyed tests use namespace 0 throughout.
func put(c *Keyed, key uint64, v float32) { c.PutVec(0, key, []float32{v}) }

func TestLRUHitMissAccounting(t *testing.T) {
	c := NewKeyed(8, 1)
	if _, ok := c.GetVec(0, 1); ok {
		t.Fatal("empty cache returned a hit")
	}
	put(c, 1, 10)
	v, ok := c.GetVec(0, 1)
	if !ok || v[0] != 10 {
		t.Fatalf("got %v %v, want [10] true", v, ok)
	}
	st := c.Stats()
	if st.Hits != 1 || st.Misses != 1 || st.Entries != 1 {
		t.Fatalf("stats %+v, want 1 hit / 1 miss / 1 entry", st)
	}
	if got := st.HitRate(); got != 0.5 {
		t.Fatalf("hit rate %v, want 0.5", got)
	}
}

func TestLRUEviction(t *testing.T) {
	c := NewKeyed(4, 1) // single shard so LRU order is global
	for k := uint64(0); k < 4; k++ {
		put(c, k, float32(k))
	}
	put(c, 0, 0) // refresh key 0: key 1 becomes the oldest
	put(c, 9, 9) // exceeds capacity, evicts key 1
	if _, ok := c.GetVec(0, 1); ok {
		t.Fatal("key 1 should have been evicted")
	}
	for _, k := range []uint64{0, 2, 3, 9} {
		if _, ok := c.GetVec(0, k); !ok {
			t.Fatalf("key %d should have survived", k)
		}
	}
	st := c.Stats()
	if st.Evictions != 1 {
		t.Fatalf("evictions %d, want 1", st.Evictions)
	}
	if st.Entries != 4 || c.Len() != 4 {
		t.Fatalf("entries %d len %d, want 4", st.Entries, c.Len())
	}
}

func TestLRUShardingKeepsCapacity(t *testing.T) {
	c := NewKeyed(64, 8)
	for k := uint64(0); k < 1000; k++ {
		put(c, k, float32(k))
	}
	if n := c.Len(); n > 64+8 { // per-shard rounding can add at most one entry per shard
		t.Fatalf("cache holds %d entries, capacity 64", n)
	}
	if st := c.Stats(); st.Evictions == 0 {
		t.Fatal("overfilled cache reported no evictions")
	}
}

func TestNilCacheIsDisabled(t *testing.T) {
	c := NewKeyed(0, 8)
	if c != nil {
		t.Fatal("zero capacity should yield a nil cache")
	}
	c.PutVec(0, 1, []float32{1}) // all no-ops on nil
	if _, ok := c.GetVec(0, 1); ok {
		t.Fatal("nil cache returned a hit")
	}
	if st := c.Stats(); st != (CacheStats{}) || c.Len() != 0 {
		t.Fatalf("nil cache stats %+v, len %d, want zero", st, c.Len())
	}
}

func TestCacheStatsAdd(t *testing.T) {
	a := CacheStats{Hits: 3, Misses: 1, Evictions: 2, Entries: 5}
	a.Add(CacheStats{Hits: 1, Misses: 4, Evictions: 0, Entries: 2})
	want := CacheStats{Hits: 4, Misses: 5, Evictions: 2, Entries: 7}
	if a != want {
		t.Fatalf("merged stats %+v, want %+v", a, want)
	}
}

// refLRU is the model the core is checked against: a slice of entries in
// recency order, least recent first.
type refLRU struct {
	capacity int
	ents     []refEntry
}

type refEntry struct {
	key uint64
	val float32
}

func (r *refLRU) find(key uint64) int {
	return slices.IndexFunc(r.ents, func(e refEntry) bool { return e.key == key })
}

func (r *refLRU) get(key uint64) (float32, bool) {
	i := r.find(key)
	if i < 0 {
		return 0, false
	}
	e := r.ents[i]
	r.ents = append(slices.Delete(r.ents, i, i+1), e)
	return e.val, true
}

// put reports the key it evicted, if any.
func (r *refLRU) put(key uint64, val float32) (evicted uint64, did bool) {
	if i := r.find(key); i >= 0 {
		r.ents = slices.Delete(r.ents, i, i+1)
	} else if len(r.ents) == r.capacity {
		evicted, did = r.ents[0].key, true
		r.ents = slices.Delete(r.ents, 0, 1)
	}
	r.ents = append(r.ents, refEntry{key, val})
	return evicted, did
}

// TestLRUCoreMatchesModel drives the index-linked core and the reference
// with one seeded stream of gets, inserts and refreshes and requires the
// same hit/miss answer and value on every get, the same eviction (and
// victim) on every put, the same length throughout, and the same recency
// order at the end.
func TestLRUCoreMatchesModel(t *testing.T) {
	for _, capacity := range []int{1, 2, 7, 1024} {
		t.Run(fmt.Sprint(capacity), func(t *testing.T) {
			var c lruCore
			c.init(capacity)
			ref := &refLRU{capacity: capacity}
			rng := tensor.NewRNG(uint64(capacity))
			keys := uint64(2*capacity + 3) // about half the puts evict once warm
			var wantStats CacheStats
			for op := 0; op < 20000; op++ {
				key := NsKey(3, rng.Uint64()%keys)
				if rng.Intn(3) == 0 {
					got, ok := c.get(key)
					want, wantOK := ref.get(key)
					if ok != wantOK || (ok && got[0] != want) {
						t.Fatalf("op %d: get(%d) = %v %v, want %v %v", op, key, got, ok, want, wantOK)
					}
					if ok {
						wantStats.Hits++
					} else {
						wantStats.Misses++
					}
				} else {
					val := float32(op)
					c.slot(key).val = []float32{val}
					victim, evicted := ref.put(key, val)
					if evicted {
						wantStats.Evictions++
						if _, still := c.index[victim]; still {
							t.Fatalf("op %d: put(%d) kept %d, the model's victim", op, key, victim)
						}
					}
				}
				wantStats.Entries = len(ref.ents)
				if got := c.stats(); got != wantStats {
					t.Fatalf("op %d: stats %+v, want %+v", op, got, wantStats)
				}
				if len(c.index) != c.len() {
					t.Fatalf("op %d: index holds %d keys for %d entries", op, len(c.index), c.len())
				}
			}
			// Walk the ring from least to most recent.
			i := c.ents[0].prev
			for _, want := range ref.ents {
				if e := c.ents[i]; e.key != want.key || e.val[0] != want.val {
					t.Fatalf("recency order diverged: entry (%d, %v), want (%d, %v)", e.key, e.val, want.key, want.val)
				}
				i = c.ents[i].prev
			}
			if i != 0 {
				t.Fatal("ring holds more entries than the model")
			}
		})
	}
}

// TestKeyedAllocs pins the steady-state paths at zero allocations: a hit, a
// refresh, and an insert that evicts from a full cache.
func TestKeyedAllocs(t *testing.T) {
	c := NewKeyed(64, 4)
	val := []float32{1, 2, 3}
	for k := uint64(0); k < 1000; k++ {
		c.PutVec(0, k, val)
	}
	hot := uint64(999)
	if n := testing.AllocsPerRun(100, func() { c.GetVec(0, hot) }); n != 0 {
		t.Errorf("GetVec hit allocates %v times", n)
	}
	if n := testing.AllocsPerRun(100, func() { c.PutVec(0, hot, val) }); n != 0 {
		t.Errorf("PutVec refresh allocates %v times", n)
	}
	next := uint64(1000)
	before := c.Stats().Evictions
	if n := testing.AllocsPerRun(1000, func() { c.PutVec(0, next, val); next++ }); n != 0 {
		t.Errorf("PutVec insert-with-evict allocates %v times", n)
	}
	if got := c.Stats().Evictions - before; got != 1001 {
		t.Fatalf("%d evictions over 1001 inserts into a full cache", got)
	}
}
