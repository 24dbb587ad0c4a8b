package cluster

import (
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
