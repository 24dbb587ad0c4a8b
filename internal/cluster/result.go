package cluster

import (
	"math/bits"
	"slices"
	"time"

	"dmt/internal/embeddings"
	"dmt/internal/workload"
)

// ClassResult is one SLO class's outcome: counts, latency percentiles, and
// the mean per-request latency breakdown (batch wait = time inside the
// forming micro-batch, queue wait = flushed batch waiting for the executor,
// compute and embedding fetch = the batch service components).
type ClassResult struct {
	Class    workload.Class
	Arrived  int
	Served   int
	Rejected int

	P50, P95, P99 time.Duration

	AvgBatchWait time.Duration
	AvgQueueWait time.Duration
	AvgCompute   time.Duration
	AvgEmbFetch  time.Duration
}

// MeetsSLO reports whether the class held its p99 target with nothing
// rejected — the bar the capacity planner's "min replicas" answers against.
func (c ClassResult) MeetsSLO() bool {
	return c.Rejected == 0 && c.Served > 0 && c.P99 <= c.Class.SLO
}

// ReplicaResult is one replica's share of the run.
type ReplicaResult struct {
	Served  int
	Batches int
	Tower   embeddings.CacheStats
	Emb     embeddings.CacheStats
}

// Result aggregates one simulated run.
type Result struct {
	Replicas int
	Policy   string
	// Duration is the virtual makespan (last batch completion).
	Duration time.Duration
	Served   int
	Rejected int
	Batches  int
	AvgBatch float64

	// Fleet-wide latency percentiles over every served request.
	P50, P95, P99 time.Duration

	Classes    []ClassResult
	PerReplica []ReplicaResult

	// Tower / Emb merge the replicas' cache counters.
	Tower embeddings.CacheStats
	Emb   embeddings.CacheStats
}

// RejectRate is the fleet-wide admission-rejected fraction.
func (r Result) RejectRate() float64 {
	total := r.Served + r.Rejected
	if total == 0 {
		return 0
	}
	return float64(r.Rejected) / float64(total)
}

// MeetsSLO reports whether every class held its own p99 target with zero
// rejections.
func (r Result) MeetsSLO() bool {
	for _, c := range r.Classes {
		if !c.MeetsSLO() {
			return false
		}
	}
	return len(r.Classes) > 0
}

// percentiles returns the nearest-rank p50, p95 and p99 of lats, each what
// workload.Percentile reads off a sorted copy, by selecting the three ranks
// in ascending order, each within what the last left above it. It reorders
// lats.
func percentiles(lats []time.Duration) (p50, p95, p99 time.Duration) {
	if len(lats) == 0 {
		return 0, 0, 0
	}
	var out [3]time.Duration
	lo := 0
	for i, q := range [3]float64{0.50, 0.95, 0.99} {
		k := workload.Rank(q, len(lats))
		nthElement(lats[lo:], k-lo)
		out[i], lo = lats[k], k
	}
	return out[0], out[1], out[2]
}

// nthElement reorders a so that a[k] holds what a sorted copy holds there,
// with nothing greater before it and nothing smaller after it: quickselect
// with median-of-three pivots and a three-way partition, so runs of equal
// values end a round at once. A range that has not shrunk to 16 elements
// within 2·log2(len(a)) rounds is sorted instead, bounding the worst case
// at a sort's.
func nthElement(a []time.Duration, k int) {
	lo, hi := 0, len(a) // a[k] belongs to a[lo:hi]
	for rounds := 2 * bits.Len(uint(len(a))); hi-lo > 16 && rounds > 0; rounds-- {
		x, y, z := a[lo], a[lo+(hi-lo)/2], a[hi-1]
		p := max(min(x, y), min(max(x, y), z))
		lt, i, gt := lo, lo, hi // a[lo:lt] < p, a[lt:i] == p, a[gt:hi] > p
		for i < gt {
			switch {
			case a[i] < p:
				a[lt], a[i] = a[i], a[lt]
				lt++
				i++
			case a[i] > p:
				gt--
				a[i], a[gt] = a[gt], a[i]
			default:
				i++
			}
		}
		switch {
		case k < lt:
			hi = lt
		case k >= gt:
			lo = gt
		default:
			return
		}
	}
	slices.Sort(a[lo:hi])
}
