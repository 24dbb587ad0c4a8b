// Package cluster is the deterministic discrete-event serving simulator: a
// shared virtual clock, an event heap, and N replica instances of the serve
// stack's cost model, answering the capacity question production
// recommendation systems ask — "how many hosts does X QPS need to hold
// p99 < Y ms?" (the DisaggRec framing) — in milliseconds of wall time.
//
// The simulator reuses the layers the serve refactor extracted rather than
// growing a parallel stack:
//
//   - service times come from serve.CostModel (forward time from
//     perfmodel.EffectiveTFlops over model FLOPs, embedding-fetch rounds
//     priced by netsim.P2PTime);
//   - per-replica tower-output and embedding-row caches are
//     embeddings.LRUSets: presence-only, lock-free, and one probe per key,
//     yet deciding every hit, miss and eviction exactly as the real
//     server's embeddings.Keyed memoization of the same geometry does.
//     A run derives each distinct sample's namespaced keys once (keyTable:
//     its tower keys and its embedding-row keys, already folded onto
//     EmbIDSpace) into one table every replica touches them from;
//   - each replica runs serve's Batcher, the micro-batcher's one
//     flush-on-full / flush-on-MaxWait rule, on the virtual clock.
//
// Requests arrive from a workload.Trace (open-loop arrivals, zipf key skew,
// SLO classes), pass token-bucket admission, are routed by a pluggable
// Policy, and leave per-class latency breakdowns (queue wait, batch wait,
// compute, embedding fetch). Their percentiles are selected, not sorted,
// from one latency array sized by the trace. Every quantity is a pure
// function of (Config, Trace): same-seed runs are bit-reproducible in CI at
// any GOMAXPROCS.
package cluster

import (
	"cmp"
	"fmt"
	"slices"
	"time"

	"dmt/internal/serve"
	"dmt/internal/workload"
)

// Config describes one simulated serving fleet.
type Config struct {
	// Replicas is the fleet size (>= 1).
	Replicas int
	// Cost prices batched forwards and embedding fetches.
	Cost serve.CostModel
	// MaxBatch / MaxWait are serve.Config's, applied by serve.NewBatcher:
	// flush a batch when it is full or its oldest request has waited MaxWait.
	MaxBatch int
	MaxWait  time.Duration
	// Policy routes admitted requests; nil defaults to round-robin.
	Policy Policy
	// AdmitRate enables token-bucket admission when positive: the fleet
	// admits at most AdmitRate requests/second sustained with MaxBatch
	// tokens of headroom.
	AdmitRate float64
	// TowerCacheEntries / EmbCacheEntries size each replica's caches
	// (embeddings.LRUSet, sharded as serve.DefaultConfig's; <= 0 disables
	// as in serve.Config).
	TowerCacheEntries int
	EmbCacheEntries   int
	// EmbIDSpace is the distinct embedding-row id space the sample pool maps
	// onto per table; <= 0 keys rows by sample directly (no cross-sample
	// sharing).
	EmbIDSpace int
}

// event is a timer the simulator sets: a replica's MaxWait flush or the end
// of its executor's batch (done). Arrivals are not events: Run takes them
// off the trace in order, each ahead of any event due at its instant or later.
type event struct {
	at   time.Duration
	seq  int64 // push order: the deterministic tie-break
	done bool
	rep  int    // replica index
	gen  uint64 // flush: the generation the replica's Batcher armed
}

// eventHeap is a binary min-heap of events by (at, seq), sifted in place
// so no event is boxed. (at, seq) is a total order, so the pop order is
// the only one any heap could give.
type eventHeap []event

func (h eventHeap) less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}

func (h *eventHeap) push(e event) {
	*h = append(*h, e)
	q := *h
	for i := len(q) - 1; i > 0; {
		p := (i - 1) / 2
		if !q.less(i, p) {
			break
		}
		q[i], q[p] = q[p], q[i]
		i = p
	}
}

func (h *eventHeap) pop() event {
	q := *h
	top, n := q[0], len(q)-1
	q[0] = q[n]
	q = q[:n]
	for i := 0; ; {
		c := 2*i + 1
		if c >= n {
			break
		}
		if r := c + 1; r < n && q.less(r, c) {
			c = r
		}
		if !q.less(c, i) {
			break
		}
		q[i], q[c] = q[c], q[i]
		i = c
	}
	*h = q
	return top
}

type sim struct {
	cfg     Config
	reqs    []workload.Request // the trace in arrival order; batches hold positions in it
	keys    *keyTable
	events  eventHeap
	seq     int64
	reps    []*replica
	bucket  *tokenBucket
	classes []*classAcc
	lats    []time.Duration // every class's latencies, one region per class
	loads   []time.Duration // route's scratch: Policy.Pick must not retain it
	batches int
	served  int
	makespn time.Duration
}

func (s *sim) push(e event) {
	e.seq = s.seq
	s.seq++
	s.events.push(e)
}

// Run simulates the trace against the fleet and returns the aggregated
// result. It is a pure function of its arguments.
func Run(cfg Config, trace *workload.Trace) Result {
	reqs := arrivalOrder(trace.Requests)
	return run(cfg, trace.Classes, reqs, newKeyTable(reqs, cfg.Cost, cfg.EmbIDSpace)).result()
}

// run replays reqs, in arrival order, through the fleet with the cache keys
// of keys, and returns the simulator with its counters for result.
func run(cfg Config, classes []workload.Class, reqs []workload.Request, keys *keyTable) *sim {
	if cfg.Replicas < 1 {
		panic(fmt.Sprintf("cluster: %d replicas", cfg.Replicas))
	}
	if cfg.Policy == nil {
		cfg.Policy = RoundRobin()
	}

	s := &sim{cfg: cfg, reqs: reqs, keys: keys, loads: make([]time.Duration, cfg.Replicas)}
	for i := 0; i < cfg.Replicas; i++ {
		s.reps = append(s.reps, newReplica(i, cfg))
	}
	if cfg.AdmitRate > 0 {
		s.bucket = newTokenBucket(cfg.AdmitRate, float64(cfg.MaxBatch))
	}
	// One latency array for the run, a region per class sized by the
	// class's arrivals, so no class's latencies ever grow a slice.
	counts := make([]int, len(classes))
	for i := range reqs {
		counts[reqs[i].Class]++
	}
	s.lats = make([]time.Duration, len(reqs))
	off := 0
	for c, n := range counts {
		s.classes = append(s.classes, &classAcc{class: classes[c], lats: s.lats[off : off : off+n]})
		off += n
	}

	for next := 0; next < len(reqs) || len(s.events) > 0; {
		if next < len(reqs) && (len(s.events) == 0 || reqs[next].At <= s.events[0].at) {
			s.arrive(reqs[next].At, int32(next))
			next++
			continue
		}
		e := s.events.pop()
		if r := s.reps[e.rep]; e.done {
			s.complete(r, e.at)
		} else if group := r.batch.Expire(e.gen); group != nil {
			s.flush(r, group, e.at)
		}
	}
	return s
}

// arrivalOrder returns reqs stably sorted by arrival: reqs itself if already
// so (a generated or read trace is), else a sorted copy.
func arrivalOrder(reqs []workload.Request) []workload.Request {
	byAt := func(a, b workload.Request) int { return cmp.Compare(a.At, b.At) }
	if !slices.IsSortedFunc(reqs, byAt) {
		reqs = slices.Clone(reqs)
		slices.SortStableFunc(reqs, byAt)
	}
	return reqs
}

// arrive admits, routes, and enqueues request i.
func (s *sim) arrive(now time.Duration, i int32) {
	rq := &s.reqs[i]
	acc := s.classes[rq.Class]
	acc.arrived++
	if s.bucket != nil && !s.bucket.allow(now) {
		acc.rejected++
		return
	}
	r := s.reps[s.route(now, rq)]
	r.pendingEst += time.Duration(rq.Items) * s.cfg.Cost.ItemTime()
	group, gen, arm := r.batch.Add(i)
	if group != nil {
		s.flush(r, group, now)
	}
	if arm {
		s.push(event{at: now + r.batch.MaxWait(), rep: r.id, gen: gen})
	}
}

// route applies the policy over the replicas' current modeled load.
func (s *sim) route(now time.Duration, rq *workload.Request) int {
	for i, r := range s.reps {
		s.loads[i] = r.loadAt(now)
	}
	pick := s.cfg.Policy.Pick(rq, s.loads)
	if pick < 0 || pick >= len(s.reps) {
		panic(fmt.Sprintf("cluster: policy %s picked replica %d of %d", s.cfg.Policy.Name(), pick, len(s.reps)))
	}
	return pick
}

// flush seals a batch the replica's Batcher released: cache accounting runs
// here (the batch's cost is fixed at flush, exactly once per request), and
// the batch joins the executor queue.
func (s *sim) flush(r *replica, group []int32, now time.Duration) {
	b := s.seal(r, group, now)
	r.queue = append(r.queue, b)
	r.queuedCost += b.cost()
	if !r.busy {
		s.start(r, now)
	}
}

// start begins service of the replica's oldest queued batch.
func (s *sim) start(r *replica, now time.Duration) {
	b := r.queue[r.head]
	if r.head++; r.head == len(r.queue) {
		r.queue, r.head = r.queue[:0], 0
	}
	r.queuedCost -= b.cost()
	b.serviceStart = now
	r.current, r.busy = b, true
	r.busyUntil = now + b.cost()
	s.push(event{at: r.busyUntil, done: true, rep: r.id})
}

// complete retires the replica's in-service batch, charging each request its
// latency breakdown, then starts the next batch if one is queued.
func (s *sim) complete(r *replica, now time.Duration) {
	b := r.current
	r.busy = false
	s.batches++
	r.batches++
	for _, i := range b.reqs {
		rq := &s.reqs[i]
		acc := s.classes[rq.Class]
		acc.served++
		s.served++
		r.served++
		lat := now - rq.At
		acc.lats = append(acc.lats, lat)
		acc.batchWait += b.flushedAt - rq.At
		acc.queueWait += b.serviceStart - b.flushedAt
		acc.compute += b.compute
		acc.embFetch += b.embFetch
	}
	r.batch.Reuse(b.reqs)
	if now > s.makespn {
		s.makespn = now
	}
	if r.head < len(r.queue) {
		s.start(r, now)
	}
}

// result aggregates the accumulated counters.
func (s *sim) result() Result {
	res := Result{
		Replicas: s.cfg.Replicas,
		Policy:   s.cfg.Policy.Name(),
		Duration: s.makespn,
		Served:   s.served,
		Batches:  s.batches,
	}
	if s.batches > 0 {
		res.AvgBatch = float64(s.served) / float64(s.batches)
	}
	// Each class's served latencies move down to follow the classes
	// before it (append copies within s.lats, never past the region it
	// reads), so the fleet's are one prefix of the same array.
	all := s.lats[:0]
	for _, acc := range s.classes {
		res.Rejected += acc.rejected
		cr := ClassResult{
			Class:    acc.class,
			Arrived:  acc.arrived,
			Served:   acc.served,
			Rejected: acc.rejected,
		}
		cr.P50, cr.P95, cr.P99 = percentiles(acc.lats)
		if acc.served > 0 {
			n := time.Duration(acc.served)
			cr.AvgBatchWait = acc.batchWait / n
			cr.AvgQueueWait = acc.queueWait / n
			cr.AvgCompute = acc.compute / n
			cr.AvgEmbFetch = acc.embFetch / n
		}
		all = append(all, acc.lats...)
		res.Classes = append(res.Classes, cr)
	}
	res.P50, res.P95, res.P99 = percentiles(all)
	for _, r := range s.reps {
		res.PerReplica = append(res.PerReplica, ReplicaResult{
			Served:  r.served,
			Batches: r.batches,
			Tower:   r.tower.Stats(),
			Emb:     r.emb.Stats(),
		})
		res.Tower.Add(r.tower.Stats())
		res.Emb.Add(r.emb.Stats())
	}
	return res
}

// classAcc accumulates one SLO class during the run.
type classAcc struct {
	class             workload.Class
	arrived, served   int
	rejected          int
	lats              []time.Duration // the class's region of sim.lats, capped at its arrivals
	batchWait         time.Duration
	queueWait         time.Duration
	compute, embFetch time.Duration
}
