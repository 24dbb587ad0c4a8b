package cluster

import (
	"time"

	"dmt/internal/embeddings"
	"dmt/internal/serve"
)

// replica is one simulated serving instance: the forming micro-batch, the
// executor queue, and the per-replica memoization caches. Batches form
// under the real server's serve.Batcher; state advances only when the
// simulator delivers an event. The caches are embeddings.LRUSets: they hold
// keys only, and decide every hit, miss and eviction as the server's
// embeddings.Keyed caches of the same geometry would. Every replica touches
// them with the keys the run's keyTable derived once per sample. Two
// divergences from the real server remain (closing either would move the
// simulator's pinned results):
//
//   - one executor per replica, where a Server runs Config.Workers;
//   - caches keyed by the request's sample identity, where the server keys
//     them by the real bag ids (sampleKeys is the one function to change).
type replica struct {
	id int

	// batch forms the next micro-batch; pendingEst is its modeled compute.
	batch      *serve.Batcher[int32]
	pendingEst time.Duration

	// queue[head:] holds flushed batches awaiting the executor, which
	// serves current (when busy) until busyUntil. The queue restarts at its
	// base whenever it empties, and every served batch's request slice goes
	// back to batch through Reuse, so a steady fleet allocates no batches.
	queue      []batchJob
	head       int
	queuedCost time.Duration
	busy       bool
	busyUntil  time.Duration
	current    batchJob

	tower *embeddings.LRUSet
	emb   *embeddings.LRUSet

	served  int
	batches int
}

// batchJob is one sealed micro-batch with its modeled cost, fixed at flush.
type batchJob struct {
	reqs         []int32 // positions in sim.reqs
	flushedAt    time.Duration
	serviceStart time.Duration
	compute      time.Duration
	embFetch     time.Duration
}

func (b *batchJob) cost() time.Duration { return b.compute + b.embFetch }

func newReplica(id int, cfg Config) *replica {
	shards := serve.DefaultConfig().CacheShards
	return &replica{
		id:    id,
		batch: serve.NewBatcher[int32](cfg.MaxBatch, cfg.MaxWait),
		tower: embeddings.NewLRUSet(cfg.TowerCacheEntries, shards),
		emb:   embeddings.NewLRUSet(cfg.EmbCacheEntries, shards),
	}
}

// loadAt is the replica's modeled outstanding work at the instant now: the
// remaining service of the in-flight batch, every queued batch's cost, and
// the compute estimate of the still-forming batch. Routing policies compare
// this figure.
func (r *replica) loadAt(now time.Duration) time.Duration {
	load := r.queuedCost + r.pendingEst
	if r.busyUntil > now {
		load += r.busyUntil - now
	}
	return load
}

// seal fixes a flushed batch's cost: tower and embedding cache accounting
// runs through the replica's presence caches with exactly the serve-path
// key structure (namespace = tower or table, key = the request's
// feature-group identity; duplicate keys within a batch hit after the first
// occurrence, mirroring models.Predict's intra-batch dedupe). The keys come
// from the run's keyTable, in sampleKeys' order: towers, then tables.
func (s *sim) seal(r *replica, group []int32, now time.Duration) batchJob {
	b := batchJob{reqs: group, flushedAt: now}
	r.pendingEst = 0

	items, towerHits, missRows := 0, 0, 0
	for _, i := range group {
		items += s.reqs[i].Items
		keys := s.keys.of(i)
		for _, k := range keys[:s.keys.towers] {
			if r.tower.Touch(k) {
				towerHits++
			}
		}
		for _, k := range keys[s.keys.towers:] {
			if !r.emb.Touch(k) {
				missRows++
			}
		}
	}
	b.compute, b.embFetch = s.cfg.Cost.BatchTime(items, towerHits, missRows)
	return b
}
