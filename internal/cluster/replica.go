package cluster

import (
	"time"

	"dmt/internal/embeddings"
	"dmt/internal/serve"
	"dmt/internal/workload"
)

// replica is one simulated serving instance: the forming micro-batch, the
// executor queue, and the per-replica memoization caches. Batches form
// under the real server's serve.Batcher; state advances only when the
// simulator delivers an event. The caches are embeddings.LRUSets: they hold
// keys only, and decide every hit, miss and eviction as the server's
// embeddings.Keyed caches of the same geometry would. Two divergences from
// the real server remain (closing either would move the simulator's pinned
// results):
//
//   - one executor per replica, where a Server runs Config.Workers;
//   - caches keyed by the request's sample identity, where the server keys
//     them by the real bag ids.
type replica struct {
	id int

	// batch forms the next micro-batch; pendingEst is its modeled compute.
	batch      *serve.Batcher[*workload.Request]
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
	reqs         []*workload.Request
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
		batch: serve.NewBatcher[*workload.Request](cfg.MaxBatch, cfg.MaxWait),
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
// occurrence, mirroring models.Predict's intra-batch dedupe).
func (r *replica) seal(group []*workload.Request, now time.Duration, cost serve.CostModel, embIDSpace int) batchJob {
	b := batchJob{reqs: group, flushedAt: now}
	r.pendingEst = 0

	items, towerHits, missRows := 0, 0, 0
	for _, rq := range group {
		sample := uint64(rq.Sample)
		items += rq.Items
		for t := 0; t < cost.Towers; t++ {
			if r.tower.Touch(t, sample) {
				towerHits++
			}
		}
		for f := 0; f < cost.EmbTables; f++ {
			id := embeddings.NsKey(f, sample)
			if embIDSpace > 0 {
				// Fold the sample onto the table's id space so hot rows are
				// shared across samples, as real bag ids are.
				id %= uint64(embIDSpace)
			}
			if !r.emb.Touch(f, id) {
				missRows++
			}
		}
	}
	b.compute, b.embFetch = cost.BatchTime(items, towerHits, missRows)
	return b
}
