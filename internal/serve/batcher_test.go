package serve

import (
	"errors"
	"math/rand"
	"reflect"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dmt/internal/data"
	"dmt/internal/models"
	"dmt/internal/tensor"
)

// stubModel is a trivial Predictor for scheduler tests: logit = dense[0] +
// number of ids in the first bag.
type stubModel struct{ schema data.Schema }

func newStub() *stubModel {
	return &stubModel{schema: data.Schema{
		NumDense:      1,
		Cardinalities: []int{100},
		HotSizes:      []int{1},
	}}
}

func (m *stubModel) Name() string        { return "stub" }
func (m *stubModel) Schema() data.Schema { return m.schema }
func (m *stubModel) Predict(b *data.Batch, _ models.PredictOptions) *tensor.Tensor {
	out := tensor.New(b.Size)
	for s := 0; s < b.Size; s++ {
		lo := int(b.Offsets[0][s])
		hi := len(b.Indices[0])
		if s+1 < b.Size {
			hi = int(b.Offsets[0][s+1])
		}
		out.Data()[s] = b.Dense.At(s, 0) + float32(hi-lo)
	}
	return out
}

func stubSample(v float32, ids ...int32) Sample {
	return Sample{Dense: []float32{v}, Indices: [][]int32{ids}}
}

func TestBatcherFlushOnFull(t *testing.T) {
	srv := NewServer(newStub(), Config{
		MaxBatch: 4,
		MaxWait:  time.Hour, // the timer must never be the flush trigger
		Workers:  2,
	})
	defer srv.Close()

	const n = 8
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got, err := srv.Predict(stubSample(float32(i), 7))
			if err != nil {
				t.Errorf("predict: %v", err)
				return
			}
			if want := float32(i) + 1; got != want {
				t.Errorf("request %d: got %v, want %v", i, got, want)
			}
		}(i)
	}
	wg.Wait()

	st := srv.Stats()
	if st.Served != n {
		t.Fatalf("served %d, want %d", st.Served, n)
	}
	// With an hour-long wait, every flush must have come from a full batch.
	if st.Batches != n/4 {
		t.Fatalf("batches %d, want %d (flush-on-full only)", st.Batches, n/4)
	}
	if st.AvgBatch != 4 {
		t.Fatalf("avg batch %v, want 4", st.AvgBatch)
	}
}

func TestBatcherFlushOnTimeout(t *testing.T) {
	srv := NewServer(newStub(), Config{
		MaxBatch: 64, // never reached by 3 requests
		MaxWait:  5 * time.Millisecond,
		Workers:  1,
	})
	defer srv.Close()

	done := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < 3; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if _, err := srv.Predict(stubSample(float32(i), 1, 2)); err != nil {
				t.Errorf("predict: %v", err)
			}
		}(i)
	}
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("partial batch was never flushed: flush-on-timeout broken")
	}
	if st := srv.Stats(); st.Served != 3 {
		t.Fatalf("served %d, want 3", st.Served)
	}
}

func TestPredictAfterClose(t *testing.T) {
	srv := NewServer(newStub(), DefaultConfig())
	srv.Close()
	srv.Close() // idempotent
	if _, err := srv.Predict(stubSample(1, 1)); err != ErrClosed {
		t.Fatalf("got %v, want ErrClosed", err)
	}
}

func TestPredictRejectsWrongShape(t *testing.T) {
	srv := NewServer(newStub(), DefaultConfig())
	defer srv.Close()
	if _, err := srv.Predict(Sample{Dense: []float32{1, 2}, Indices: [][]int32{{1}}}); err == nil {
		t.Fatal("mis-shaped sample was accepted")
	}
	// Out-of-range ids must be rejected up front, not panic a worker.
	if _, err := srv.Predict(stubSample(1, 999)); err == nil {
		t.Fatal("out-of-range embedding id was accepted")
	}
}

// TestServerAllocsPerRequest pins the Server's steady state, one client at
// batch 1, to the allocations of the model's own Predict: the reply
// channel comes from a pool, the batch forms in an array a worker handed
// back, and the worker merges into its own scratch. testing.AllocsPerRun
// runs at GOMAXPROCS 1, where the worker hands its batch back before the
// client it answered runs again, so the count is exact. Under -race,
// sync.Pool drops a share of the reply channels put back, so it skips.
func TestServerAllocsPerRequest(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops reply channels at random under -race")
	}
	m := newStub()
	srv := NewServer(m, Config{MaxBatch: 1, Workers: 1})
	defer srv.Close()
	sm := stubSample(1, 7)
	predict := func() {
		if _, err := srv.Predict(sm); err != nil {
			t.Fatal(err)
		}
	}
	predict() // the first batch array, the merge scratch and a reply channel
	predict() // the second array: the first was handed back after the first Take
	var sc mergeScratch
	b := sc.merge([]request{{sample: sm}}, m.schema)
	want := testing.AllocsPerRun(100, func() { m.Predict(b, models.PredictOptions{}) })
	if got := testing.AllocsPerRun(100, predict); got != want {
		t.Fatalf("%v allocations per request, want %v (the model's Predict alone)", got, want)
	}
}

// TestMergeScratchAllocs pins the per-worker batch arena: once a flush has
// grown the scratch to its high-water mark, re-merging a same-shaped group
// allocates nothing — the worker's steady state is zero allocations per
// batch assembly.
func TestMergeScratchAllocs(t *testing.T) {
	schema := newStub().schema
	group := make([]request, 8)
	for i := range group {
		group[i] = request{sample: stubSample(float32(i), int32(i%100), int32((i+1)%100))}
	}
	var sc mergeScratch
	b := sc.merge(group, schema)
	if b.Size != len(group) {
		t.Fatalf("merged size %d, want %d", b.Size, len(group))
	}
	for i, r := range group {
		if got := b.Dense.At(i, 0); got != r.sample.Dense[0] {
			t.Fatalf("row %d dense %v, want %v", i, got, r.sample.Dense[0])
		}
		lo := int(b.Offsets[0][i])
		hi := len(b.Indices[0])
		if i+1 < b.Size {
			hi = int(b.Offsets[0][i+1])
		}
		if hi-lo != len(r.sample.Indices[0]) {
			t.Fatalf("row %d bag has %d ids, want %d", i, hi-lo, len(r.sample.Indices[0]))
		}
	}
	if allocs := testing.AllocsPerRun(100, func() { sc.merge(group, schema) }); allocs != 0 {
		t.Fatalf("steady-state merge allocates %v per run, want 0", allocs)
	}
	// A smaller flush (a timeout-drained partial batch) reuses the arena
	// too once the wrapping tensor has been rebuilt for the new size.
	small := group[:3]
	sc.merge(small, schema)
	if allocs := testing.AllocsPerRun(100, func() { sc.merge(small, schema) }); allocs != 0 {
		t.Fatalf("steady-state partial-batch merge allocates %v per run, want 0", allocs)
	}
	// And the merged values survive the reuse: the previous large batch's
	// rows do not bleed into the smaller one.
	b = sc.merge(small, schema)
	if b.Size != 3 || b.Dense.Dim(0) != 3 || len(b.Offsets[0]) != 3 {
		t.Fatalf("reused batch kept stale shape: size=%d dense=%v offsets=%d",
			b.Size, b.Dense.Shape(), len(b.Offsets[0]))
	}
}

// TestStaleTimerKeepsNextBatch fires a MaxWait callback whose batch has
// already flushed on full, as a timer whose Stop lost that race would: the
// next batch, opened since, must keep waiting for its own deadline.
func TestStaleTimerKeepsNextBatch(t *testing.T) {
	srv := NewServer(newStub(), Config{MaxBatch: 2, MaxWait: time.Hour, Workers: 1})
	srv.pmu.Lock()
	prev := srv.batch.gen // the generation the first batch's timer is armed with
	srv.pmu.Unlock()
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := srv.Predict(stubSample(1, 1)); err != nil {
				t.Errorf("predict: %v", err)
			}
		}()
	}
	wg.Wait()

	done := make(chan struct{})
	go func() {
		defer close(done)
		if _, err := srv.Predict(stubSample(2, 2)); err != nil {
			t.Errorf("predict: %v", err)
		}
	}()
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
		srv.pmu.Lock()
		n := len(srv.batch.pending)
		srv.pmu.Unlock()
		if n == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("the one-request batch never formed")
		}
	}
	srv.flushExpired(prev)
	select {
	case <-done:
		t.Fatal("a stale timer flushed the next batch before its MaxWait")
	case <-time.After(200 * time.Millisecond):
	}
	srv.Close() // flushes the pending request
	<-done
}

// TestCloseUnderLoad closes the server while clients and MaxWait timers are
// still using the batch: every Predict returns, answered or ErrClosed, and
// every answer is counted.
func TestCloseUnderLoad(t *testing.T) {
	srv := NewServer(newStub(), Config{MaxBatch: 4, MaxWait: 50 * time.Microsecond, Workers: 2})
	var answered atomic.Uint64
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				got, err := srv.Predict(stubSample(float32(g), 1))
				if errors.Is(err, ErrClosed) {
					return
				}
				if err != nil || got != float32(g)+1 {
					t.Errorf("client %d: got %v, %v; want %v", g, got, err, float32(g)+1)
					return
				}
				answered.Add(1)
			}
		}()
	}
	for answered.Load() < 200 {
		time.Sleep(time.Millisecond)
	}
	srv.Close()
	wg.Wait()
	if st := srv.Stats(); st.Served != answered.Load() {
		t.Fatalf("served %d, answered %d", st.Served, answered.Load())
	}
}

// flushRec is one flush: its instant and the arrival indices it carried.
type flushRec struct {
	at  int64
	ids []int
}

// driveBatcher runs a Batcher over arrivals at the given instants (ns,
// non-decreasing) the way the cluster simulator drives it: one list of
// events taken in (instant, push order), every arrival pushed before any
// timer, and a timer left in the list when its batch flushes another way.
// It records a copy of each flushed batch and hands every other one back
// through Reuse, so batches form both in fresh and in reused arrays.
func driveBatcher(t *testing.T, at []int64, maxBatch int, maxWait int64) []flushRec {
	type event struct {
		at  int64
		seq int
		req int // arrival index; -1 for a MaxWait timer
		gen uint64
	}
	b := NewBatcher[int](maxBatch, time.Duration(maxWait))
	var evs []event
	for i, a := range at {
		evs = append(evs, event{at: a, seq: i, req: i})
	}
	var out []flushRec
	record := func(at int64, group []int) {
		out = append(out, flushRec{at, slices.Clone(group)})
		if len(out)%2 == 0 {
			b.Reuse(group)
		}
	}
	for seq := len(at); len(evs) > 0; {
		k := 0
		for i, e := range evs {
			if e.at < evs[k].at || e.at == evs[k].at && e.seq < evs[k].seq {
				k = i
			}
		}
		e := evs[k]
		evs = append(evs[:k], evs[k+1:]...)
		if e.req < 0 {
			if group := b.Expire(e.gen); group != nil {
				record(e.at, group)
			}
			continue
		}
		group, gen, arm := b.Add(e.req)
		if group != nil {
			record(e.at, group)
		}
		if arm {
			evs = append(evs, event{at: e.at + maxWait, seq: seq, req: -1, gen: gen})
			seq++
		}
	}
	if rest := b.Take(); rest != nil {
		t.Fatalf("requests %v never flushed", rest)
	}
	return out
}

// ruleFlushes states the flush rule directly: a batch opened by arrival i
// takes every later arrival up to its deadline at[i]+maxWait (an arrival
// at the deadline itself included) and flushes when it holds maxBatch
// requests, or else at the deadline.
func ruleFlushes(at []int64, maxBatch int, maxWait int64) []flushRec {
	var out []flushRec
	for i := 0; i < len(at); {
		f := flushRec{at: at[i] + maxWait}
		for len(f.ids) < maxBatch && i < len(at) && at[i] <= f.at {
			f.ids = append(f.ids, i)
			i++
		}
		if len(f.ids) == maxBatch {
			f.at = at[i-1]
		}
		out = append(out, f)
	}
	return out
}

func checkBatcherRule(t *testing.T, at []int64, maxBatch int, maxWait int64) {
	t.Helper()
	got := driveBatcher(t, at, maxBatch, maxWait)
	want := ruleFlushes(at, maxBatch, maxWait)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("maxBatch %d, maxWait %d ns, arrivals %v:\nflushes %v\nrule    %v", maxBatch, maxWait, at, got, want)
	}
}

// TestBatcherMatchesRule checks the batcher against the rule on hand-made
// edge cases with their flushes written out, then on seeded random ones.
func TestBatcherMatchesRule(t *testing.T) {
	for _, c := range []struct {
		at       []int64
		maxBatch int
		maxWait  int64
		want     []flushRec
	}{
		// The first batch fills at 5; its timer, still due at 10, must not
		// flush the batch that request 2 opened at 5.
		{[]int64{0, 5, 5, 20}, 2, 10, []flushRec{{5, []int{0, 1}}, {15, []int{2}}, {30, []int{3}}}},
		// An arrival at the deadline joins the batch before the timer fires.
		{[]int64{0, 10, 11}, 3, 10, []flushRec{{10, []int{0, 1}}, {21, []int{2}}}},
		// ... and fills it at that very instant.
		{[]int64{0, 10, 10}, 3, 10, []flushRec{{10, []int{0, 1, 2}}}},
		// MaxBatch 1 flushes every request on arrival and arms no timer.
		{[]int64{0, 0, 3}, 1, 10, []flushRec{{0, []int{0}}, {0, []int{1}}, {3, []int{2}}}},
	} {
		if got := ruleFlushes(c.at, c.maxBatch, c.maxWait); !reflect.DeepEqual(got, c.want) {
			t.Fatalf("rule on %v: %v, want %v", c.at, got, c.want)
		}
		checkBatcherRule(t, c.at, c.maxBatch, c.maxWait)
	}
	rng := rand.New(rand.NewSource(1))
	for range 500 {
		at := make([]int64, rng.Intn(64))
		var now int64
		for i := range at {
			now += rng.Int63n(4) * rng.Int63n(300) // a quarter of the gaps are 0
			at[i] = now
		}
		checkBatcherRule(t, at, 1+rng.Intn(8), 1+rng.Int63n(1000))
	}
}

// FuzzBatcher checks the batcher against the rule on fuzzed arrivals:
// maxBatch 1–8, maxWait 1–1000 ns, one arrival per gap byte (a byte below
// 128 is a gap of that many ns, one above a coarse gap of 16 ns steps).
func FuzzBatcher(f *testing.F) {
	f.Add(uint8(1), uint16(9), []byte{0, 5, 0, 15})
	f.Add(uint8(2), uint16(9), []byte{0, 10, 1})
	f.Add(uint8(0), uint16(999), []byte{200, 0, 0, 255, 3})
	f.Fuzz(func(t *testing.T, mb uint8, mw uint16, gaps []byte) {
		if len(gaps) > 256 {
			t.Skip() // longer streams add nothing the batcher can see
		}
		at := make([]int64, len(gaps))
		var now int64
		for i, g := range gaps {
			if g < 128 {
				now += int64(g)
			} else {
				now += int64(g-128) * 16
			}
			at[i] = now
		}
		checkBatcherRule(t, at, 1+int(mb)%8, 1+int64(mw)%1000)
	})
}
