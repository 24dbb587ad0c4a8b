// Package serve is the online inference subsystem: it turns the repo's
// single-process models into a concurrent prediction service of the shape
// disaggregated recommendation inference systems study (DisaggRec, Ke et
// al. 2022; FlexEMR, Huang et al. 2024).
//
// Three mechanisms carry the throughput story:
//
//   - A micro-batching scheduler coalesces concurrent Predict calls into
//     batches under a max-batch/max-wait policy and fans them out over a
//     worker pool, amortizing per-request overhead into one batched forward.
//   - A sharded LRU cache memoizes pooled embedding-bag lookups keyed on
//     (table, ids-hash) — applicable to any model.
//   - A DMT-specific tower-output cache memoizes per-tower module outputs
//     keyed on the tower's feature-group ids. Because DMT towers are
//     self-contained functions of their own feature group, repeated groups
//     (hot items, recurring users) skip the tower module entirely — a reuse
//     level a monolithic DLRM/DCN interaction cannot expose.
//
// The package is driven by cmd/dmt-serve, the registry's serving experiment
// (BenchmarkExperiments/serving in the repo root) and the benchmark's
// serve_hot and serve_cold workloads.
package serve

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"dmt/internal/data"
	"dmt/internal/embeddings"
	"dmt/internal/models"
	"dmt/internal/tensor"
)

// Sample is one inference request: the raw dense features plus one id bag
// per sparse feature.
type Sample struct {
	Dense   []float32
	Indices [][]int32
}

// Config tunes the server.
type Config struct {
	// MaxBatch is the micro-batch flush size; 1 disables batching (each
	// request runs its own forward).
	MaxBatch int
	// MaxWait bounds how long the first request of a partial batch waits
	// for company before the batch is flushed anyway.
	MaxWait time.Duration
	// Workers is the number of concurrent batch executors.
	Workers int
	// EmbCacheEntries enables the embedding-bag cache when positive.
	EmbCacheEntries int
	// TowerCacheEntries enables the tower-output cache when positive
	// (effective for DMT models only).
	TowerCacheEntries int
	// CacheShards is the lock-sharding factor for both caches.
	CacheShards int
}

// DefaultConfig returns a sensible serving configuration: batches of up to
// 32, a 1 ms batching window, one worker per CPU, caches disabled.
func DefaultConfig() Config {
	return Config{
		MaxBatch:    32,
		MaxWait:     time.Millisecond,
		Workers:     runtime.GOMAXPROCS(0),
		CacheShards: 8,
	}
}

// Stats is a snapshot of server activity.
type Stats struct {
	Served   uint64 // requests answered
	Batches  uint64 // forward passes executed
	AvgBatch float64
	Emb      embeddings.CacheStats // embedding-bag cache
	Tower    embeddings.CacheStats // tower-output cache
}

// ErrClosed is returned by Predict after Close.
var ErrClosed = errors.New("serve: server closed")

type request struct {
	sample Sample
	out    chan float32
}

// replies recycles the requests' reply channels (buffered, capacity 1).
// A channel goes back only after its one receive, or unused on the
// ErrClosed path, so every channel in the pool is empty.
var replies = sync.Pool{New: func() any { return make(chan float32, 1) }}

// Server owns a model and answers Predict calls through the micro-batcher.
type Server struct {
	model  models.Predictor
	schema data.Schema
	opt    models.PredictOptions
	emb    *embeddings.Keyed
	tower  *embeddings.Keyed

	work chan []request

	// mu guards closed against in-flight senders on work: every sender
	// (Predict, flushExpired) holds the read lock, so once Close has held
	// the write lock no further sends can start and closing work is safe.
	mu     sync.RWMutex
	closed bool

	// pmu guards the batcher — the forming batch and the answered ones
	// handed back for reuse — and ptimer, the last MaxWait timer armed.
	pmu    sync.Mutex
	batch  *Batcher[request]
	ptimer *time.Timer

	workerWG sync.WaitGroup

	served  atomic.Uint64
	batches atomic.Uint64
}

// NewServer starts the batcher and worker pool for model.
func NewServer(model models.Predictor, cfg Config) *Server {
	if cfg.Workers < 1 {
		cfg.Workers = 1
	}
	if cfg.CacheShards < 1 {
		cfg.CacheShards = 8
	}
	s := &Server{
		model:  model,
		schema: model.Schema(),
		emb:    embeddings.NewKeyed(cfg.EmbCacheEntries, cfg.CacheShards),
		tower:  embeddings.NewKeyed(cfg.TowerCacheEntries, cfg.CacheShards),
		batch:  NewBatcher[request](cfg.MaxBatch, cfg.MaxWait),
		work:   make(chan []request, cfg.Workers),
	}
	if s.emb != nil {
		s.opt.Embeddings = s.emb
	}
	if s.tower != nil {
		s.opt.Towers = s.tower
	}
	s.workerWG.Add(cfg.Workers)
	for i := 0; i < cfg.Workers; i++ {
		go s.worker()
	}
	return s
}

// Predict blocks until the sample's logit is computed (or the server is
// closed before the request could be accepted).
func (s *Server) Predict(sm Sample) (float32, error) {
	if len(sm.Dense) != s.schema.NumDense || len(sm.Indices) != s.schema.NumSparse() {
		return 0, fmt.Errorf("serve: sample has %d dense / %d sparse features, model expects %d / %d",
			len(sm.Dense), len(sm.Indices), s.schema.NumDense, s.schema.NumSparse())
	}
	// Reject out-of-range ids here: past this point the sample is merged
	// into a shared batch, and a lookup panic in a worker would take down
	// every co-batched request with it.
	for f, bag := range sm.Indices {
		for _, id := range bag {
			if int(id) < 0 || int(id) >= s.schema.Cardinalities[f] {
				return 0, fmt.Errorf("serve: feature %d id %d out of range [0,%d)",
					f, id, s.schema.Cardinalities[f])
			}
		}
	}
	req := request{sample: sm, out: replies.Get().(chan float32)}
	// The read lock pins the closed flag for the duration of the enqueue
	// (including a flush this request performs): once Close has flipped it
	// under the write lock, no new send on work can start, and everything
	// already dispatched is drained and answered.
	s.mu.RLock()
	if s.closed {
		s.mu.RUnlock()
		replies.Put(req.out)
		return 0, ErrClosed
	}
	s.pmu.Lock()
	group, gen, arm := s.batch.Add(req)
	if group != nil && s.ptimer != nil {
		s.ptimer.Stop() // spares the stale callback's wake-up, if still possible
	}
	if arm {
		s.ptimer = time.AfterFunc(s.batch.MaxWait(), func() { s.flushExpired(gen) })
	}
	s.pmu.Unlock()
	if group != nil {
		s.work <- group
	}
	s.mu.RUnlock()
	v := <-req.out
	replies.Put(req.out)
	return v, nil
}

// Close stops accepting requests, flushes and answers everything pending,
// and shuts down the workers. It is idempotent.
func (s *Server) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	s.pmu.Lock()
	group := s.batch.Take()
	s.pmu.Unlock()
	s.mu.Unlock()
	// No sender can be in flight past this point (all hold the read lock
	// and re-check closed), so the remainder flush and close are safe.
	if group != nil {
		s.work <- group
	}
	close(s.work)
	s.workerWG.Wait()
}

// Stats snapshots the server counters.
func (s *Server) Stats() Stats {
	st := Stats{
		Served:  s.served.Load(),
		Batches: s.batches.Load(),
		Emb:     s.emb.Stats(),
		Tower:   s.tower.Stats(),
	}
	if st.Batches > 0 {
		st.AvgBatch = float64(st.Served) / float64(st.Batches)
	}
	return st
}

// mergeScratch is one worker's reusable merge arena. The flushed batch is
// assembled into backing arrays grown once to the high-water mark and
// refilled on every flush, so steady-state serving allocates nothing per
// batch (pinned by TestMergeScratchAllocs). The reuse is legal because each
// worker owns exactly one in-flight batch at a time and Predict never
// retains the batch past its return (the models.Predictor contract).
type mergeScratch struct {
	dense   []float32 // backing for the (size, NumDense) dense tensor
	denseT  *tensor.Tensor
	indices [][]int32
	offsets [][]int32
	batch   data.Batch
}

// merge assembles accepted requests into the models' batch layout, reusing
// the scratch's arrays. The returned batch is valid until the next merge.
//
//dmt:transient-result
func (sc *mergeScratch) merge(reqs []request, schema data.Schema) *data.Batch {
	size := len(reqs)
	nf := schema.NumSparse()
	nd := schema.NumDense
	if cap(sc.dense) < size*nd {
		sc.dense = make([]float32, size*nd)
		sc.denseT = nil // backing regrown: the wrapping tensor is stale
	}
	sc.dense = sc.dense[:size*nd]
	if sc.denseT == nil || sc.denseT.Dim(0) != size {
		sc.denseT = tensor.FromSlice(sc.dense, size, nd)
	}
	if len(sc.indices) != nf {
		sc.indices = make([][]int32, nf)
		sc.offsets = make([][]int32, nf)
	}
	for f := 0; f < nf; f++ {
		sc.indices[f] = sc.indices[f][:0]
		if cap(sc.offsets[f]) < size {
			sc.offsets[f] = make([]int32, size)
		}
		sc.offsets[f] = sc.offsets[f][:size]
	}
	for i, r := range reqs {
		copy(sc.dense[i*nd:(i+1)*nd], r.sample.Dense)
		for f := 0; f < nf; f++ {
			sc.offsets[f][i] = int32(len(sc.indices[f]))
			sc.indices[f] = append(sc.indices[f], r.sample.Indices[f]...)
		}
	}
	sc.batch = data.Batch{
		Size:    size,
		Dense:   sc.denseT,
		Indices: sc.indices,
		Offsets: sc.offsets,
	}
	return &sc.batch
}
