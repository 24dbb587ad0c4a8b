package embeddings

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"dmt/internal/tensor"
)

// The Keyed tests use namespace 0 throughout.
func put(c *Keyed, key uint64, v float32) { c.PutVec(0, key, []float32{v}) }

// getInto reads (ns, key) into dst through a GetRows batch of one.
func getInto(c *Keyed, ns int, key uint64, dst []float32) bool {
	var kb KeyBatch
	kb.Add(ns, key)
	hit := []bool{false}
	c.GetRows(&kb, Rows{Base: dst, Stride: len(dst), Width: len(dst)}, hit)
	return hit[0]
}

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
	s := NewLRUSet(0, 8)
	if s != nil {
		t.Fatal("zero capacity should yield a nil set")
	}
	if s.Touch(0, 1) || s.Touch(0, 1) {
		t.Fatal("nil set returned a hit")
	}
	if st := s.Stats(); st != (CacheStats{}) {
		t.Fatalf("nil set stats %+v, want zero", st)
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

// lruHarness drives a core and the reference model through the same
// operations and checks them against each other after every one: the same
// hit/miss answer and value on every get, the same eviction (and victim) on
// every put, the same counters, and an index that finds every live entry
// at its position and holds nothing else.
type lruHarness struct {
	t    *testing.T
	c    lruCore
	vals []float32 // beside the core, by entry position, as its users keep them
	ref  refLRU
	want CacheStats
	op   int
}

func newLRUHarness(t *testing.T, capacity int) *lruHarness {
	h := &lruHarness{t: t, vals: make([]float32, capacity+1), ref: refLRU{capacity: capacity}}
	h.c.init(capacity)
	return h
}

func (h *lruHarness) get(key uint64) {
	i, ok := h.c.get(key)
	h.refGet("get", key, i, ok)
	h.check()
}

func (h *lruHarness) put(key uint64) {
	val := float32(h.op)
	h.vals[h.c.slot(key)] = val
	h.refPut("put", key, val)
	h.check()
}

// getOrInsert checks the one-probe op against the model's get then put.
func (h *lruHarness) getOrInsert(key uint64) {
	i, ok := h.c.getOrInsert(key)
	h.refGet("getOrInsert", key, i, ok)
	val := float32(h.op)
	h.vals[i] = val
	h.refPut("getOrInsert", key, val)
	h.check()
}

// refGet gets key from the model, which must answer as the core did: ok,
// and on a hit the value at the core's entry i.
func (h *lruHarness) refGet(op string, key uint64, i int32, ok bool) {
	want, wantOK := h.ref.get(key)
	if ok != wantOK || (ok && h.vals[i] != want) {
		h.t.Fatalf("op %d: %s(%d) = %v at %d, want %v %v", h.op, op, key, ok, i, want, wantOK)
	}
	if ok {
		h.want.Hits++
	} else {
		h.want.Misses++
	}
}

// refPut puts key into the model; the core must have evicted the model's
// victim, if any.
func (h *lruHarness) refPut(op string, key uint64, val float32) {
	if victim, evicted := h.ref.put(key, val); evicted {
		h.want.Evictions++
		if _, i := h.c.find(victim); i != 0 {
			h.t.Fatalf("op %d: %s(%d) kept %d, the model's victim", h.op, op, key, victim)
		}
	}
}

func (h *lruHarness) check() {
	h.want.Entries = len(h.ref.ents)
	if got := h.c.stats(); got != h.want {
		h.t.Fatalf("op %d: stats %+v, want %+v", h.op, got, h.want)
	}
	for i := 1; i < len(h.c.ents); i++ {
		if _, got := h.c.find(h.c.ents[i].key); got != int32(i) {
			h.t.Fatalf("op %d: key %d of entry %d found at entry %d", h.op, h.c.ents[i].key, i, got)
		}
	}
	occupied := 0
	for _, i := range h.c.index {
		if i != 0 {
			occupied++
		}
	}
	if occupied != h.c.len() {
		h.t.Fatalf("op %d: index holds %d cells for %d entries", h.op, occupied, h.c.len())
	}
	h.op++
}

// checkOrder walks the ring from least to most recent against the model.
func (h *lruHarness) checkOrder() {
	i := h.c.ents[0].prev
	for _, want := range h.ref.ents {
		if e := h.c.ents[i]; e.key != want.key || h.vals[i] != want.val {
			h.t.Fatalf("recency order diverged: entry (%d, %v), want (%d, %v)", e.key, h.vals[i], want.key, want.val)
		}
		i = h.c.ents[i].prev
	}
	if i != 0 {
		h.t.Fatal("ring holds more entries than the model")
	}
}

// homeKeys returns the n smallest keys whose probe starts at cell.
func homeKeys(c *lruCore, cell uint32, n int) []uint64 {
	var keys []uint64
	for k := uint64(1); len(keys) < n; k++ {
		if c.home(k) == cell {
			keys = append(keys, k)
		}
	}
	return keys
}

// TestLRUCoreMatchesModel drives the index-linked core and the reference
// with one seeded stream of gets, inserts, refreshes and one-probe
// get-or-inserts (see lruHarness) and requires the same recency order at
// the end.
func TestLRUCoreMatchesModel(t *testing.T) {
	for _, capacity := range []int{1, 2, 7, 1024} {
		t.Run(fmt.Sprint(capacity), func(t *testing.T) {
			h := newLRUHarness(t, capacity)
			rng := tensor.NewRNG(uint64(capacity))
			keys := uint64(2*capacity + 3) // about half the puts evict once warm
			for op := 0; op < 20000; op++ {
				key := NsKey(3, rng.Uint64()%keys)
				switch rng.Intn(4) {
				case 0:
					h.get(key)
				case 1:
					h.getOrInsert(key)
				default:
					h.put(key)
				}
			}
			h.checkOrder()
		})
	}
	// Keys sharing the last cell as home wrap their probe run past the end
	// of the index into keys homed at cells 0 and 1, so evictions shift
	// entries back across the wrap.
	t.Run("wrapping run", func(t *testing.T) {
		h := newLRUHarness(t, 4)
		last := uint32(len(h.c.index) - 1)
		keys := append(homeKeys(&h.c, last, 6), homeKeys(&h.c, 0, 3)...)
		keys = append(keys, homeKeys(&h.c, 1, 2)...)
		a, b, c, d, e := keys[0], keys[1], keys[2], keys[6], keys[3]
		for _, k := range []uint64{a, b, c, d} {
			h.put(k) // cells last, 0, 1 (home last) and 2 (home 0)
		}
		h.put(e) // probes last..3, evicts a: b, c, d and e shift back one cell
		for _, want := range []struct {
			cell uint32
			key  uint64 // 0: empty
		}{{last, b}, {0, c}, {1, d}, {2, e}, {3, 0}} {
			if i := h.c.index[want.cell]; (want.key == 0) != (i == 0) || (i != 0 && h.c.ents[i].key != want.key) {
				t.Fatalf("cell %d holds entry %d, want key %d", want.cell, i, want.key)
			}
		}
		rng := tensor.NewRNG(9)
		for op := 0; op < 5000; op++ {
			key := keys[rng.Intn(len(keys))]
			if rng.Intn(3) == 0 {
				h.get(key)
			} else {
				h.put(key)
			}
		}
		h.checkOrder()
	})
}

// FuzzLRUCore drives the core and the reference model from a byte stream:
// the first byte picks the capacity (1–8), each later byte one op (at most
// maxOps) — the top bit a get, else the next bit a one-probe get-or-insert,
// else a put; the low six bits a key from a pool in which whole groups
// share a home cell (the last one among them, so probe runs wrap).
func FuzzLRUCore(f *testing.F) {
	const maxOps = 256
	f.Add([]byte{3, 0x80, 1, 2, 3, 4, 0x81, 5, 20, 21, 40, 0x94})
	f.Add([]byte{0, 7, 7, 0x87, 8})
	f.Add([]byte{7, 16, 17, 18, 19, 20, 21, 22, 23, 24, 25, 26, 0x90, 0x91, 0x92})
	f.Add([]byte{2, 0x41, 0x42, 0x41, 0x43, 0x81, 0x50, 2, 0x60, 0x42})
	var pools [8][]uint64 // by capacity-1
	for i := range pools {
		var c lruCore
		c.init(i + 1)
		last := uint32(len(c.index) - 1)
		pools[i] = append(homeKeys(&c, last, 16), homeKeys(&c, 0, 16)...)
		pools[i] = append(pools[i], homeKeys(&c, 1, 8)...)
		for k := uint64(0); k < 24; k++ {
			pools[i] = append(pools[i], NsKey(1, k))
		}
	}
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) == 0 {
			return
		}
		if len(ops) > 1+maxOps {
			t.Skip() // longer streams add nothing the core can see, only run time
		}
		capacity := int(ops[0])%8 + 1
		h := newLRUHarness(t, capacity)
		pool := pools[capacity-1]
		for _, op := range ops[1:] {
			key := pool[int(op&0x3f)%len(pool)]
			switch {
			case op&0x80 != 0:
				h.get(key)
			case op&0x40 != 0:
				h.getOrInsert(key)
			default:
				h.put(key)
			}
		}
		h.checkOrder()
	})
}

// TestKeyedAllocs pins the steady-state paths at zero allocations: a hit
// (GetVec's view and a batch of GetRows copies), a refresh, an insert that
// evicts from a full cache, and batches of FillRows and PutRows that evict.
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
	var kb KeyBatch
	for k := uint64(990); k < 1000; k++ {
		kb.Add(0, k)
	}
	rows := Rows{Base: make([]float32, 4*len(kb.Keys)), Stride: 4, Width: len(val)}
	hit := make([]bool, len(kb.Keys))
	if n := testing.AllocsPerRun(100, func() { c.GetRows(&kb, rows, hit) }); n != 0 {
		t.Errorf("GetRows of %d hits allocates %v times", len(kb.Keys), n)
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
	fresh := func() {
		kb.Reset()
		for range 10 {
			kb.Add(0, next)
			next++
		}
	}
	fill := &constFiller{rows: rows}
	if n := testing.AllocsPerRun(100, func() { fresh(); c.FillRows(&kb, fill) }); n != 0 {
		t.Errorf("FillRows of 10 evicting misses allocates %v times", n)
	}
	if n := testing.AllocsPerRun(100, func() { fresh(); c.PutRows(&kb, rows) }); n != 0 {
		t.Errorf("PutRows of 10 evicting inserts allocates %v times", n)
	}
}

// constFiller is a RowFiller over a Rows view that fills a missed vector
// with its position.
type constFiller struct{ rows Rows }

func (f *constFiller) Row(i int) []float32 { return f.rows.Row(i) }

func (f *constFiller) Fill(i int, dst []float32) {
	for d := range dst {
		dst[d] = float32(i)
	}
}

// TestLRUSetAllocs pins LRUSet's steady-state paths at zero allocations: a
// hit on the most recent key, a hit that refreshes an older one, and an
// insert that evicts from a full set. One shard, so the two refreshed keys
// share a ring and each Touch relinks.
func TestLRUSetAllocs(t *testing.T) {
	s := NewLRUSet(64, 1)
	for k := uint64(0); k < 1000; k++ {
		s.Touch(0, k)
	}
	if n := testing.AllocsPerRun(100, func() { s.Touch(0, 999) }); n != 0 {
		t.Errorf("Touch hit allocates %v times", n)
	}
	older := uint64(998)
	if n := testing.AllocsPerRun(100, func() { s.Touch(0, older); older ^= 1 }); n != 0 {
		t.Errorf("Touch refresh allocates %v times", n)
	}
	next := uint64(1000)
	before := s.Stats().Evictions
	if n := testing.AllocsPerRun(1000, func() { s.Touch(0, next); next++ }); n != 0 {
		t.Errorf("Touch insert-with-evict allocates %v times", n)
	}
	if got := s.Stats().Evictions - before; got != 1001 {
		t.Fatalf("%d evictions over 1001 inserts into a full set", got)
	}
}

// TestLRUSetMatchesKeyed drives an LRUSet and a Keyed of one geometry with
// one seeded stream, Keyed as a presence cache (GetVec, then PutVec on a
// miss): every Touch must answer as GetVec did, and the final counters must
// agree. The geometries are the simulator's (16 384 keys over 8 shards,
// 26 tables' keys folded onto a 65 536-id space), one shard, and fewer
// entries than shards.
func TestLRUSetMatchesKeyed(t *testing.T) {
	for _, g := range []struct {
		name             string
		capacity, shards int
		samples          int
		fold             uint64 // id space the keys fold onto; 0 keeps them
	}{
		{"sim_fleet", 1 << 14, 8, 4096, 1 << 16},
		{"one shard", 64, 1, 40, 0},
		{"capacity below shards", 3, 8, 6, 0},
	} {
		t.Run(g.name, func(t *testing.T) {
			set, keyed := NewLRUSet(g.capacity, g.shards), NewKeyed(g.capacity, g.shards)
			marker := []float32{1}
			rng := tensor.NewRNG(uint64(g.capacity))
			for op := 0; op < 100_000; op++ {
				ns := rng.Intn(26)
				key := uint64(rng.Intn(rng.Intn(g.samples) + 1)) // skewed to small samples
				if g.fold > 0 {
					key = NsKey(ns, key) % g.fold
				}
				hit := set.Touch(ns, key)
				_, want := keyed.GetVec(ns, key)
				if !want {
					keyed.PutVec(ns, key, marker)
				}
				if hit != want {
					t.Fatalf("op %d: Touch(%d, %d) = %v, Keyed hit %v", op, ns, key, hit, want)
				}
			}
			got, want := set.Stats(), keyed.Stats()
			if got != want {
				t.Fatalf("set stats %+v, Keyed %+v", got, want)
			}
			if want.Hits == 0 || want.Evictions == 0 {
				t.Fatalf("stream made %d hits and %d evictions; it must make both", want.Hits, want.Evictions)
			}
		})
	}
}

// rowsTwin drives one Keyed through batch calls and a twin of the same
// geometry through the one-key calls each batch call stands for — a read is
// GetVec per key, a fill is GetVec and, on a miss, the fill and PutVec, a
// write is PutVec per key, in call order — and checks after every call
// that the two answered alike (the same hits, the same rows, bit for bit)
// and count alike, and at the end that every shard holds the same keys and
// vectors in the same recency order, so later evictions agree too.
type rowsTwin struct {
	t           *testing.T
	batch, twin *Keyed
	kb          KeyBatch
	ns          []int
	keys        []uint64
	call        int
}

func newRowsTwin(t *testing.T, capacity, shards int) *rowsTwin {
	return &rowsTwin{t: t, batch: NewKeyed(capacity, shards), twin: NewKeyed(capacity, shards)}
}

// value is vector element d of row i of the current call, distinct across
// calls and rows; fills negate it.
func (w *rowsTwin) value(i, d int) float32 { return float32(w.call*1000 + i*10 + d + 1) }

// rowsFiller fills a missed row with the call's negated values.
type rowsFiller struct {
	w    *rowsTwin
	rows Rows
}

func (f *rowsFiller) Row(i int) []float32 { return f.rows.Row(i) }

func (f *rowsFiller) Fill(i int, dst []float32) {
	for d := range dst {
		dst[d] = -f.w.value(i, d)
	}
}

// do runs one call over (w.ns[i], w.keys[i]): kind 0 reads, 1 fills, 2
// writes, width-float rows, stride width+1.
func (w *rowsTwin) do(kind, width int) {
	n := len(w.keys)
	w.kb.Reset()
	for i := range n {
		w.kb.Add(w.ns[i], w.keys[i])
	}
	stride := width + 1
	got := Rows{Base: make([]float32, n*stride), Stride: stride, Width: width}
	want := Rows{Base: make([]float32, n*stride), Stride: stride, Width: width}
	gotHit, wantHit := make([]bool, n), make([]bool, n)
	switch kind {
	case 0:
		w.batch.GetRows(&w.kb, got, gotHit)
		for i := range n {
			v, ok := w.twin.GetVec(w.ns[i], w.keys[i])
			copy(want.Row(i), v)
			wantHit[i] = ok
		}
	case 1:
		w.batch.FillRows(&w.kb, &rowsFiller{w, got})
		f := &rowsFiller{w, want}
		for i := range n {
			if v, ok := w.twin.GetVec(w.ns[i], w.keys[i]); ok {
				copy(want.Row(i), v)
				continue
			}
			f.Fill(i, want.Row(i))
			w.twin.PutVec(w.ns[i], w.keys[i], want.Row(i))
		}
	default:
		for i := range n {
			for d := range width {
				got.Row(i)[d] = w.value(i, d)
			}
		}
		copy(want.Base, got.Base)
		w.batch.PutRows(&w.kb, got)
		for i := range n {
			w.twin.PutVec(w.ns[i], w.keys[i], want.Row(i))
		}
	}
	if !slices.Equal(gotHit, wantHit) || !slices.Equal(bitsOf(got.Base), bitsOf(want.Base)) {
		w.t.Fatalf("call %d (kind %d) over %v/%v: hits %v rows %v, one key at a time %v %v",
			w.call, kind, w.ns, w.keys, gotHit, got.Base, wantHit, want.Base)
	}
	if g, t := w.batch.Stats(), w.twin.Stats(); g != t {
		w.t.Fatalf("call %d (kind %d): stats %+v, one key at a time %+v", w.call, kind, g, t)
	}
	w.call++
}

// sameEntries walks every shard's ring from most to least recent on got and
// on want, a Keyed of the same geometry: each must hold the same keys and
// vectors, bit for bit, in the same recency order.
func sameEntries(t *testing.T, got, want *Keyed) {
	t.Helper()
	for s, sh := range got.shards {
		tw := want.shards[s]
		i, j := sh.ents[0].next, tw.ents[0].next
		for i != 0 && j != 0 {
			if sh.ents[i].key != tw.ents[j].key || !slices.Equal(bitsOf(sh.vec(i)), bitsOf(tw.vec(j))) {
				t.Fatalf("shard %d: entry (%d, %v), want (%d, %v)", s, sh.ents[i].key, sh.vec(i), tw.ents[j].key, tw.vec(j))
			}
			i, j = sh.ents[i].next, tw.ents[j].next
		}
		if i != j {
			t.Fatalf("shard %d holds %d entries, want %d", s, sh.len(), tw.len())
		}
	}
}

func bitsOf(v []float32) []uint32 {
	out := make([]uint32, len(v))
	for i, x := range v {
		out[i] = math.Float32bits(x)
	}
	return out
}

// keyedRowsGeometries are the shard counts FuzzKeyedRows and
// TestKeyedRowsMatchOneKeyAtATime cover (3 rounds up to 4).
var keyedRowsGeometries = []int{1, 3, 8}

// runKeyedRows decodes a call stream: the first byte picks the capacity
// (1–16) and the shard count; each call is a header byte — the kind
// (read, fill, write) in its top two bits, the row width (1–4) in the next
// two, the batch length (1–8) in the low three, clipped to the bytes left
// — and one byte per key, a namespace (0–3) in its top two bits and a key
// (0–15) in its low four, so a call often repeats a key.
func runKeyedRows(t *testing.T, stream []byte) {
	capacity := int(stream[0]&15) + 1
	w := newRowsTwin(t, capacity, keyedRowsGeometries[int(stream[0]>>4)%len(keyedRowsGeometries)])
	for ops := stream[1:]; len(ops) > 1; {
		head := ops[0]
		n := min(int(head&7)+1, len(ops)-1)
		w.ns, w.keys = w.ns[:0], w.keys[:0]
		for _, k := range ops[1 : 1+n] {
			w.ns = append(w.ns, int(k>>6))
			w.keys = append(w.keys, uint64(k&15))
		}
		ops = ops[1+n:]
		w.do(int(head>>6)%3, int(head>>3&3)+1)
	}
	sameEntries(t, w.batch, w.twin)
}

// TestKeyedRowsMatchOneKeyAtATime runs long seeded call streams through
// runKeyedRows at every fuzzed geometry and capacities 1, 5 and 16.
func TestKeyedRowsMatchOneKeyAtATime(t *testing.T) {
	for g := range keyedRowsGeometries {
		for _, capacity := range []int{1, 5, 16} {
			rng := tensor.NewRNG(uint64(10*g + capacity))
			stream := []byte{byte(g<<4 | (capacity - 1))}
			for range 4000 {
				stream = append(stream, byte(rng.Intn(256)))
			}
			runKeyedRows(t, stream)
		}
	}
}

// FuzzKeyedRows drives random batched reads, fills and writes on one Keyed
// and the one-key calls they stand for on a twin (see runKeyedRows and
// rowsTwin): hits, rows, counters, contents and recency order must match.
func FuzzKeyedRows(f *testing.F) {
	const maxBytes = 256
	f.Add([]byte{0x03, 0x07, 1, 2, 3, 1, 2, 3, 1, 2, 0x47, 1, 2, 3, 4, 5, 6, 7, 8, 0x87, 9, 1, 9, 1, 0x41, 0x41})
	f.Add([]byte{0x10, 0x45, 0x01, 0x41, 0x81, 0xc1, 0x01, 0x02, 0x05, 0x01, 0x41, 0x81, 0xc1, 0x01, 0x02})
	f.Add([]byte{0x2f, 0x9f, 0, 1, 2, 3, 4, 5, 6, 7, 0x1f, 8, 9, 10, 11, 12, 13, 14, 15, 0x5f, 0, 1, 2, 3, 4, 5, 6, 7})
	f.Fuzz(func(t *testing.T, stream []byte) {
		if len(stream) == 0 {
			return
		}
		if len(stream) > maxBytes {
			t.Skip() // longer streams add nothing the cache can see, only run time
		}
		runKeyedRows(t, stream)
	})
}

// filled returns a vector of n copies of v.
func filled(n int, v float32) []float32 {
	out := make([]float32, n)
	for i := range out {
		out[i] = v
	}
	return out
}

// TestKeyedMixedLengths stores vectors of lengths 1, 16 and 128 in one
// shard, so the slab's stride widens with live rows in it, and reads every
// one back exactly through GetRows and GetVec.
func TestKeyedMixedLengths(t *testing.T) {
	c := NewKeyed(16, 1)
	want := map[uint64][]float32{}
	for k, n := range []int{1, 16, 1, 128, 16, 1} {
		v := make([]float32, n)
		for i := range v {
			v[i] = float32(100*k + i)
		}
		c.PutVec(0, uint64(k), v)
		want[uint64(k)] = v
	}
	for k, v := range want {
		got, ok := c.GetVec(0, k)
		if !ok || !slices.Equal(got, v) {
			t.Errorf("key %d: GetVec %v %v, want %v", k, got, ok, v)
		}
		dst := filled(len(v), -1)
		if !getInto(c, 0, k, dst) || !slices.Equal(dst, v) {
			t.Errorf("key %d: GetRows read %v, want %v", k, dst, v)
		}
	}
	var nilCache *Keyed
	if dst := filled(2, -1); getInto(nilCache, 0, 1, dst) || !slices.Equal(dst, filled(2, -1)) {
		t.Error("a nil cache's GetRows hit or wrote dst")
	}
}

// TestKeyedCopiesOnPut mutates a vector after PutVec: the cache keeps the
// value it was given.
func TestKeyedCopiesOnPut(t *testing.T) {
	c := NewKeyed(8, 1)
	v := []float32{1, 2, 3}
	c.PutVec(0, 7, v)
	v[0], v[2] = 9, 9
	dst := make([]float32, 3)
	if !getInto(c, 0, 7, dst) || !slices.Equal(dst, []float32{1, 2, 3}) {
		t.Fatalf("cached %v after the caller's vector changed, want [1 2 3]", dst)
	}
}

// TestKeyedConcurrentRows has 4 goroutines write batches of
// constant-filled vectors under overlapping keys, and read and fill batches
// of them back into their own buffers, while the others evict and
// overwrite rows: a row read back must be one vector, never a mix of two
// (run it under -race).
func TestKeyedConcurrentRows(t *testing.T) {
	const dim, batch = 64, 4
	c := NewKeyed(32, 2)
	errs := make(chan error, 4)
	for g := 0; g < 4; g++ {
		go func() {
			rows := Rows{Base: make([]float32, batch*dim), Stride: dim, Width: dim}
			fill := &constFiller{rows: rows}
			hit := make([]bool, batch)
			var kb KeyBatch
			for i := 0; i < 500; i++ {
				kb.Reset()
				for j := range batch {
					kb.Add(0, uint64((i*7+g+j)%48))
				}
				for j := range rows.Base {
					rows.Base[j] = float32(1000*g + i)
				}
				c.PutRows(&kb, rows)
				kb.Reset()
				for j := range batch {
					kb.Add(0, uint64((i*5+g+j)%48))
				}
				if i%2 == 0 {
					c.GetRows(&kb, rows, hit)
				} else {
					c.FillRows(&kb, fill)
				}
				for j := range batch {
					for _, v := range rows.Row(j) {
						if v != rows.Row(j)[0] {
							errs <- fmt.Errorf("torn row: %v", rows.Row(j))
							return
						}
					}
				}
			}
			errs <- nil
		}()
	}
	for g := 0; g < 4; g++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
}

// Len returns the entry count across shards; zero for a nil cache.
func (k *Keyed) Len() int { return k.Stats().Entries }

// TestKeyedLengthCellsFollowTheSlab fills an 8 192-row Keyed at
// train_embed's shape past its capacity: every shard's length cells hold
// exactly the slab's row count, capacity plus the sentinel's at most, with
// no append slack — 32 KiB of cells, where growing them by append held
// 42 KB.
func TestKeyedLengthCellsFollowTheSlab(t *testing.T) {
	c := NewKeyed(8192, 16)
	v := filled(8, 1)
	for key := range uint64(3 * 8192) {
		c.PutVec(0, key, v)
		if key%1000 != 999 {
			continue
		}
		for s, sh := range c.shards {
			if rows := len(sh.slab) / sh.stride; cap(sh.lens) != rows || rows > sh.capacity+1 {
				t.Fatalf("after %d puts, shard %d holds %d length cells for a slab of %d rows (capacity %d)",
					key+1, s, cap(sh.lens), rows, sh.capacity)
			}
		}
	}
	cells := 0
	for _, sh := range c.shards {
		cells += cap(sh.lens)
	}
	if want := 8192 + len(c.shards); cells != want {
		t.Fatalf("a full cache holds %d length cells, want %d", cells, want)
	}
}
