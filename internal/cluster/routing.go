package cluster

import (
	"fmt"
	"time"

	"dmt/internal/embeddings"
	"dmt/internal/workload"
)

// Policy routes one admitted request to a replica. loads[i] is replica i's
// modeled outstanding work at the arrival instant (replica.loadAt); Pick is a
// deterministic function of its arguments and own state and never keeps loads.
type Policy interface {
	Name() string
	Pick(rq *workload.Request, loads []time.Duration) int
}

// RoundRobin returns the oblivious baseline: replica = arrival index mod N.
func RoundRobin() Policy { return &roundRobin{} }

type roundRobin struct{ next int }

func (p *roundRobin) Name() string { return "round-robin" }

func (p *roundRobin) Pick(rq *workload.Request, loads []time.Duration) int {
	i := p.next % len(loads)
	p.next++
	return i
}

// LeastLoaded returns the work-aware policy: the replica with the smallest
// modeled outstanding work, ties to the lowest index. Because load is
// modeled work (not request count), it separates heavy ranking requests
// from light lookups — the case where round-robin piles every heavy request
// onto the same replica.
func LeastLoaded() Policy { return leastLoaded{} }

type leastLoaded struct{}

func (leastLoaded) Name() string { return "least-loaded" }

func (leastLoaded) Pick(rq *workload.Request, loads []time.Duration) int {
	best := 0
	for i := 1; i < len(loads); i++ {
		if loads[i] < loads[best] {
			best = i
		}
	}
	return best
}

// CacheAffinity returns the tower-output cache-affinity policy — the
// prefix-cache analogue DMT's per-tower memoization enables: requests for
// the same sample key land on the same replica, so the zipf head stays
// resident in one tower cache instead of being diluted across every
// replica's. Affinity is bounded: when the target replica's modeled load
// exceeds the fleet minimum by more than slack, the request spills to the
// least-loaded replica (a hot key must not melt its home replica).
func CacheAffinity(slack time.Duration) Policy {
	if slack <= 0 {
		slack = 500 * time.Microsecond
	}
	return cacheAffinity{slack: slack}
}

type cacheAffinity struct{ slack time.Duration }

func (p cacheAffinity) Name() string { return "cache-affinity" }

func (p cacheAffinity) Pick(rq *workload.Request, loads []time.Duration) int {
	home := int(embeddings.NsKey(0, uint64(rq.Sample)) % uint64(len(loads)))
	min := leastLoaded{}.Pick(rq, loads)
	if loads[home]-loads[min] > p.slack {
		return min
	}
	return home
}

// ParsePolicy maps a flag string to a policy.
func ParsePolicy(s string) (Policy, error) {
	switch s {
	case "round-robin":
		return RoundRobin(), nil
	case "least-loaded":
		return LeastLoaded(), nil
	case "cache-affinity":
		return CacheAffinity(0), nil
	default:
		return nil, fmt.Errorf("cluster: unknown routing policy %q", s)
	}
}
