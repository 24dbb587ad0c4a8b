package embeddings

import (
	"slices"
	"testing"

	"dmt/internal/tensor"
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
		rows := store.(*CachedStore).rows
		for i, id := range ids {
			_, cached[i] = rows.GetVec(0, uint64(id))
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

// storeTwin drives a Cached(Local) store and replays each of its calls one
// id at a time on a twin Keyed of the same geometry, beside a plain Local
// over identically seeded tables that supplies the rows the inner store
// holds. A Lookup replays as GetVec per requested id, in request order,
// then PutVec of each request's distinct misses; an Update as PutVec per
// updated row. After every call the store must return the twin's rows bit
// for bit and count as the twin counts, and at the end hold the twin's
// entries (see sameEntries), so the batched cache makes every decision a
// row at a time would.
type storeTwin struct {
	t     *testing.T
	store Store
	twin  *Keyed
	plain *Local
	call  int
}

// twinRows is every fuzzed table's row count: above the largest fuzzed
// capacity, so the cache evicts.
const twinRows, twinDim = 20, 3

func newStoreTwin(t *testing.T, tables, capacity int) *storeTwin {
	return &storeTwin{
		t:     t,
		store: Cached(NewLocal(makeTables(tables, twinRows, twinDim, 3), 0.01), capacity),
		twin:  NewKeyed(capacity, 8),
		plain: NewLocal(makeTables(tables, twinRows, twinDim, 3), 0.01),
	}
}

// check compares a call's results and the counters after it.
func (w *storeTwin) check(op string, got, want []*tensor.Tensor) {
	w.t.Helper()
	for i := range want {
		if !slices.Equal(bitsOf(got[i].Data()), bitsOf(want[i].Data())) {
			w.t.Fatalf("call %d (%s), result %d: %v, one id at a time %v", w.call, op, i, got[i].Data(), want[i].Data())
		}
	}
	if g, t := StatsOf(w.store), w.twin.Stats(); g != t {
		w.t.Fatalf("call %d (%s): stats %+v, one id at a time %+v", w.call, op, g, t)
	}
	w.call++
}

func (w *storeTwin) lookup(reqs []Req) {
	got := w.store.Lookup(reqs)
	want := w.plain.Lookup(reqs)
	missed := make([][]bool, len(reqs))
	for i, r := range reqs {
		missed[i] = make([]bool, len(r.IDs))
		for k, id := range r.IDs {
			v, ok := w.twin.GetVec(r.Table, uint64(id))
			if ok {
				copy(want[i].Row(k), v)
			}
			missed[i][k] = !ok
		}
	}
	for i, r := range reqs {
		var put []int32
		for k, id := range r.IDs {
			if missed[i][k] && !slices.Contains(put, id) {
				put = append(put, id)
				w.twin.PutVec(r.Table, uint64(id), want[i].Row(k))
			}
		}
	}
	w.check("lookup", got, want)
}

func (w *storeTwin) update(ups []Upd) {
	got := w.store.Update(ups)
	want := w.plain.Update(ups)
	for i, u := range ups {
		for j, row := range u.Rows {
			w.twin.PutVec(u.Table, uint64(row), want[i].Row(j))
		}
	}
	w.check("update", got, want)
}

// runCachedStore decodes a call stream: the first byte picks the table
// count (1–3) from its value mod 3 and the capacity (1–16) from bits 2–5.
// Each call starts with a header byte whose top bit picks Lookup (0) or
// Update (1). A Lookup makes (header>>5&3)+1 requests, each a byte — the
// table in its top two bits, mod the table count, and the id count (0–7)
// in its low three — and one byte per id, mod twinRows, so ids repeat
// within and across requests. An Update has one Upd for each table whose
// bit is set in the header's low three bits, its rows the set bits of the
// next three bytes below twinRows, ascending. Calls stop at the stream's
// end.
func runCachedStore(t *testing.T, stream []byte) {
	tables := int(stream[0]%3) + 1
	w := newStoreTwin(t, tables, int(stream[0]>>2&15)+1)
	ops := stream[1:]
	next := func() (byte, bool) {
		if len(ops) == 0 {
			return 0, false
		}
		b := ops[0]
		ops = ops[1:]
		return b, true
	}
	for head, ok := next(); ok; head, ok = next() {
		if head&0x80 == 0 {
			reqs := make([]Req, int(head>>5&3)+1)
			for i := range reqs {
				r, _ := next()
				reqs[i].Table = int(r>>6) % tables
				for range r & 7 {
					if id, ok := next(); ok {
						reqs[i].IDs = append(reqs[i].IDs, int32(int(id)%twinRows))
					}
				}
			}
			w.lookup(reqs)
			continue
		}
		var ups []Upd
		for table := range tables {
			if head>>table&1 == 0 {
				continue
			}
			var mask uint32
			for b := range 3 {
				v, _ := next()
				mask |= uint32(v) << (8 * b)
			}
			var rows []int
			for row := range twinRows {
				if mask>>row&1 != 0 {
					rows = append(rows, row)
				}
			}
			ups = append(ups, Upd{Table: table, Rows: rows, GradRows: gradFor(rows, twinDim, float32(w.call+1)/64)})
		}
		w.update(ups)
	}
	sameEntries(t, w.store.(*CachedStore).rows, w.twin)
}

// TestCachedStoreMatchesOneIDAtATime runs long seeded call streams through
// runCachedStore at every table count and capacities 1, 5 and 16.
func TestCachedStoreMatchesOneIDAtATime(t *testing.T) {
	for tables := range 3 {
		for _, capacity := range []int{1, 5, 16} {
			rng := tensor.NewRNG(uint64(10*tables + capacity))
			stream := []byte{byte((capacity-1)<<2 | tables)}
			for range 4000 {
				stream = append(stream, byte(rng.Intn(256)))
			}
			runCachedStore(t, stream)
		}
	}
}

// FuzzCachedStore drives random Lookup and Update sequences through a
// Cached(Local) store and replays them one id at a time on a twin Keyed
// (see runCachedStore and storeTwin): rows, counters and the surviving
// entries must match.
func FuzzCachedStore(f *testing.F) {
	const maxBytes = 512
	// One table, capacity 4: a request with duplicates, an update, the
	// same ids again.
	f.Add([]byte{0x0c, 0x00, 0x06, 1, 2, 1, 3, 2, 9, 0x81, 0x0e, 0x02, 0x00, 0x00, 0x00, 0x06, 1, 2, 1, 3, 2, 9})
	// Three tables, capacity 2: requests over every table, one table twice.
	f.Add([]byte{0x06, 0x60, 0x03, 1, 2, 3, 0x43, 1, 2, 3, 0x83, 4, 5, 6, 0x02, 1, 2, 0x87, 0xff, 0xff, 0x0f, 0x01, 0, 0, 0x0f, 0xf0, 0x00})
	// Two tables, capacity 16: empty requests and an update of no rows.
	f.Add([]byte{0x3d, 0x20, 0x00, 0x40, 0x82, 0x00, 0x00, 0x00, 0x27, 0x07, 0, 1, 2, 3, 4, 5, 6, 0x47, 7, 8, 9, 10, 11, 12, 13})
	f.Fuzz(func(t *testing.T, stream []byte) {
		if len(stream) == 0 {
			return
		}
		if len(stream) > maxBytes {
			t.Skip() // longer streams add nothing the cache can see, only run time
		}
		runCachedStore(t, stream)
	})
}
