package embeddings

import (
	"testing"
)

// TestCachedLookupDeterministicUnderEviction is the regression test for a
// replay-determinism bug dmt-lint found: Lookup used to insert fetched
// rows into the LRU by ranging over a position map, so under capacity
// pressure the eviction order — and with it the surviving cached-ID set
// and the pinned hit/miss counters — varied run to run. Two identically
// seeded stores replaying the same requests must now agree exactly on
// which ids survive and on every cache counter.
func TestCachedLookupDeterministicUnderEviction(t *testing.T) {
	const (
		rows     = 64
		dim      = 4
		capacity = 8 // far fewer than the 32 distinct ids below → evictions
	)
	ids := make([]int32, 32)
	for i := range ids {
		ids[i] = int32(i)
	}
	run := func() ([]bool, CacheStats) {
		inner := NewLocal(makeTables(1, rows, dim, 7), 0.01)
		store := Cached(inner, capacity)
		// Two rounds over the same ids: round 1 is all misses and fills
		// the cache past capacity; round 2's hits are exactly the ids
		// that survived eviction.
		store.Lookup([]Req{{Table: 0, IDs: ids}})
		store.Lookup([]Req{{Table: 0, IDs: ids}})
		cached := make([]bool, len(ids))
		lru := store.(*CachedStore).lru
		for i, id := range ids {
			_, cached[i] = lru.Get(NsKey(0, uint64(id)))
		}
		return cached, StatsOf(store)
	}
	wantCached, wantStats := run()
	for trial := 0; trial < 8; trial++ {
		gotCached, gotStats := run()
		if gotStats != wantStats {
			t.Fatalf("trial %d: cache stats diverged across identical replays: got %+v, want %+v", trial, gotStats, wantStats)
		}
		for i := range wantCached {
			if gotCached[i] != wantCached[i] {
				t.Fatalf("trial %d: cached set diverged at id %d: got %v, want %v", trial, ids[i], gotCached, wantCached)
			}
		}
	}
}

// TestCachedRoundAllocsIndependentOfIDs: a steady-state Lookup + Update
// round through the cache allocates per call and per request — response
// slab, result headers — never per id. The same round over 16x the ids must
// allocate exactly as often, with every id hitting (capacity above the id
// count) and with nearly every id missing and evicting (an LRU far smaller
// than the cyclic scan keeps only the write-back's tail). In the second case
// every written-back row re-keys an evicted entry of a full cache and
// overwrites its row in place.
func TestCachedRoundAllocsIndependentOfIDs(t *testing.T) {
	const (
		rows = 2048
		dim  = 8
	)
	round := func(capacity, n int) (allocs float64, st CacheStats) {
		store := Cached(NewLocal(makeTables(2, rows, dim, 5), 0.01), capacity)
		reqs := make([]Req, 2)
		ups := make([]Upd, 2)
		for f := range reqs {
			ids := make([]int32, 0, 2*n)
			upRows := make([]int, n)
			for i := 0; i < n; i++ {
				ids = append(ids, int32(i), int32(i)) // every id twice: the miss dedup runs
				upRows[i] = i
			}
			reqs[f] = Req{Table: f, IDs: ids}
			ups[f] = Upd{Table: f, Rows: upRows, GradRows: gradFor(upRows, dim, 0.25)}
		}
		allocs = testing.AllocsPerRun(20, func() {
			store.Lookup(reqs)
			store.Update(ups)
		})
		return allocs, StatsOf(store)
	}
	for _, tc := range []struct {
		name     string
		capacity int
		hits     bool
	}{
		{"all hits", 4 * rows, true},
		{"misses and evictions", 16, false},
	} {
		small, _ := round(tc.capacity, 64)
		large, st := round(tc.capacity, 1024)
		if small != large {
			t.Errorf("%s: %v allocations per round over 64 ids, %v over 1024", tc.name, small, large)
		}
		// The first round misses everything; after it the regime holds.
		if tc.hits && st.Misses != 2*2*1024 {
			t.Errorf("%s: %d misses, want only the first round's", tc.name, st.Misses)
		}
		if !tc.hits && (st.Evictions == 0 || st.Misses < 10*st.Hits) {
			t.Errorf("%s: stats %+v from a thrashing cache", tc.name, st)
		}
	}
}
