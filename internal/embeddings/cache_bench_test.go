package embeddings

import (
	"slices"
	"testing"

	"dmt/internal/tensor"
)

// BenchmarkHotpathRowCache times one Lookup + Update round through a
// Cached(Local) store at one train_embed rank's shape: the rank owns 4
// tables of 4096 rows at dim 8 behind an 8192-row cache, and each round
// looks up 512 four-hot bags per table (2048 ids) and writes the distinct
// rows back. The ids are uniform over the tables, so with half of all rows
// cached about half the lookups hit, as on the workload.
func BenchmarkHotpathRowCache(b *testing.B) {
	const (
		tables = 4
		rows   = 4096
		dim    = 8
		cache  = 8192
		ids    = 2048
		rounds = 16 // distinct id sets, cycled
	)
	store := Cached(NewLocal(makeTables(tables, rows, dim, 1), 0.01), cache)
	r := tensor.NewRNG(2)
	type round struct {
		reqs []Req
		ups  []Upd
	}
	work := make([]round, rounds)
	for i := range work {
		for f := 0; f < tables; f++ {
			req := Req{Table: f, IDs: make([]int32, ids)}
			for k := range req.IDs {
				req.IDs[k] = int32(r.Intn(rows))
			}
			distinct := make([]int, len(req.IDs))
			for k, id := range req.IDs {
				distinct[k] = int(id)
			}
			slices.Sort(distinct)
			distinct = slices.Compact(distinct)
			work[i].reqs = append(work[i].reqs, req)
			work[i].ups = append(work[i].ups, Upd{Table: f, Rows: distinct, GradRows: gradFor(distinct, dim, 1e-3)})
		}
	}
	for _, w := range work { // warm the cache
		store.Lookup(w.reqs)
		store.Update(w.ups)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w := work[i%rounds]
		store.Lookup(w.reqs)
		store.Update(w.ups)
	}
	b.StopTimer()
	st := StatsOf(store)
	b.ReportMetric(st.HitRate(), "hit-share")
}

// BenchmarkHotpathKeyed times Keyed at the serving tower cache's geometry
// (16 384 entries over 8 shards, 16-float vectors): GetVec hits (a view)
// and GetInto hits (a copy, what Predict does) over a half-full cache's
// keys, and PutVecs of new keys into a full cache, each of which evicts.
func BenchmarkHotpathKeyed(b *testing.B) {
	const (
		entries = 1 << 14
		towers  = 4
	)
	fill := func(n int) *Keyed {
		c := NewKeyed(entries, 8)
		for k := 0; k < n; k++ {
			c.PutVec(k%towers, uint64(k), make([]float32, 16))
		}
		return c
	}
	b.Run("get-hit", func(b *testing.B) {
		c := fill(entries / 2) // no shard overflows, so every key stays
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			k := i % (entries / 2)
			if _, ok := c.GetVec(k%towers, uint64(k)); !ok {
				b.Fatalf("key %d missed", k)
			}
		}
	})
	b.Run("get-into-hit", func(b *testing.B) {
		c := fill(entries / 2)
		dst := make([]float32, 16)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			k := i % (entries / 2)
			if !c.GetInto(k%towers, uint64(k), dst) {
				b.Fatalf("key %d missed", k)
			}
		}
	})
	b.Run("put-evict", func(b *testing.B) {
		c := fill(2 * entries)
		v := make([]float32, 16)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			k := 2*entries + i
			c.PutVec(k%towers, uint64(k), v)
		}
	})
}

// BenchmarkHotpathLRUSet times LRUSet at the cluster simulator's geometry
// (16 384 keys over 8 shards): Touches that hit, over a half-full set's
// keys, and Touches of new keys into a full set, each of which evicts.
func BenchmarkHotpathLRUSet(b *testing.B) {
	const (
		entries = 1 << 14
		towers  = 8
	)
	fill := func(n int) *LRUSet {
		s := NewLRUSet(entries, 8)
		for k := 0; k < n; k++ {
			s.Touch(k%towers, uint64(k))
		}
		return s
	}
	b.Run("hit", func(b *testing.B) {
		s := fill(entries / 2) // no shard overflows, so every key stays
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			k := i % (entries / 2)
			if !s.Touch(k%towers, uint64(k)) {
				b.Fatalf("key %d missed", k)
			}
		}
	})
	b.Run("insert-evict", func(b *testing.B) {
		s := fill(2 * entries)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			k := 2*entries + i
			if s.Touch(k%towers, uint64(k)) {
				b.Fatalf("new key %d hit", k)
			}
		}
	})
}
