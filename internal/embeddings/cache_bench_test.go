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
// (16 384 entries over 8 shards; a row of D·(C·F+P) = 128 floats, the
// serving DMT-DLRM's tower output): GetVec hits (a view) over a half-full
// cache's keys and PutVecs of new keys into a full cache, each of which
// evicts, one key a call; then what Predict does, a batch of 32 keys a
// call: GetRows hits (copies out) and PutRows of new keys (copies in, every
// one evicting). The batch cases report ns per row beside ns per call.
func BenchmarkHotpathKeyed(b *testing.B) {
	const (
		entries = 1 << 14
		towers  = 8
		width   = 128
		batch   = 32
	)
	fill := func(n int) *Keyed {
		c := NewKeyed(entries, 8)
		v := make([]float32, width)
		for k := 0; k < n; k++ {
			c.PutVec(k%towers, uint64(k), v)
		}
		return c
	}
	rows := Rows{Base: make([]float32, batch*width), Stride: width, Width: width}
	perRow := func(b *testing.B) {
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*batch), "ns/row")
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
	b.Run("put-evict", func(b *testing.B) {
		c := fill(2 * entries)
		v := make([]float32, width)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			k := 2*entries + i
			c.PutVec(k%towers, uint64(k), v)
		}
	})
	b.Run("rows-hit-32", func(b *testing.B) {
		c := fill(entries / 2)
		var kb KeyBatch
		hit := make([]bool, batch)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			kb.Reset()
			for j := range batch {
				k := (i*batch + j) % (entries / 2)
				kb.Add(k%towers, uint64(k))
			}
			c.GetRows(&kb, rows, hit)
		}
		b.StopTimer()
		if !hit[0] || !hit[batch-1] {
			b.Fatal("a resident key missed")
		}
		perRow(b)
	})
	b.Run("rows-put-evict-32", func(b *testing.B) {
		c := fill(2 * entries)
		var kb KeyBatch
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			kb.Reset()
			for j := range batch {
				k := 2*entries + i*batch + j
				kb.Add(k%towers, uint64(k))
			}
			c.PutRows(&kb, rows)
		}
		b.StopTimer()
		perRow(b)
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
			s.Touch(NsKey(k%towers, uint64(k)))
		}
		return s
	}
	b.Run("hit", func(b *testing.B) {
		s := fill(entries / 2) // no shard overflows, so every key stays
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			k := i % (entries / 2)
			if !s.Touch(NsKey(k%towers, uint64(k))) {
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
			if s.Touch(NsKey(k%towers, uint64(k))) {
				b.Fatalf("new key %d hit", k)
			}
		}
	})
}
