package experiments

import (
	"fmt"
	"strings"
	"time"

	"dmt/internal/cluster"
	"dmt/internal/perfmodel"
	"dmt/internal/serve"
	"dmt/internal/topology"
	"dmt/internal/workload"
)

// The capacity-planning experiment: the cluster simulator answering the
// question the serving sections of disaggregated-inference papers pose —
// how many replicas does a given arrival rate need before every SLO class
// holds its p99? One open-loop trace is generated per rate and replayed
// against every fleet size, so rows within a rate differ only in the fleet.

// ClusterProfile sizes the capacity sweep of an A100 fleet.
type ClusterProfile struct {
	Towers int // DMT tower count for the cost model (<=1 = monolithic)

	Rates       []float64 // arrival rates (requests/second) to sweep
	MaxReplicas int
	Requests    int // trace length per rate
	Samples     int // distinct sample keys the zipf skew draws from
	ZipfS       float64
	Arrival     workload.Dist
	Shape       float64 // Gamma/Weibull shape; ignored for Poisson
	Seed        uint64

	MaxBatch     int
	MaxWait      time.Duration
	Policy       string  // routing policy name (cluster.ParsePolicy)
	AdmitPerRep  float64 // token-bucket rate per replica (0 = admission off)
	CacheEntries int     // per-replica tower and embedding cache entries
	EmbIDSpace   int     // distinct embedding rows the sample pool folds onto
}

// SmokeCluster keeps the test suite and CI gate fast.
func SmokeCluster() ClusterProfile {
	return ClusterProfile{
		Towers:       8,
		Rates:        []float64{200_000, 800_000},
		MaxReplicas:  3,
		Requests:     4000,
		Samples:      512,
		ZipfS:        1.2,
		Arrival:      workload.Poisson,
		Seed:         1,
		MaxBatch:     32,
		MaxWait:      200 * time.Microsecond,
		Policy:       "cache-affinity",
		CacheEntries: 1 << 12,
		EmbIDSpace:   1 << 14,
	}
}

// DefaultCluster is the cmd/dmt-serve -cluster default.
func DefaultCluster() ClusterProfile {
	p := SmokeCluster()
	p.Rates = []float64{250_000, 500_000, 1_000_000, 2_000_000}
	p.MaxReplicas = 8
	p.Requests = 40_000
	p.Samples = 4096
	p.CacheEntries = 1 << 14
	p.EmbIDSpace = 1 << 16
	return p
}

// ClusterRow is one (rate, fleet size) simulated measurement: the arrival
// rate and what the simulator reported for that fleet.
type ClusterRow struct {
	Rate float64
	cluster.Result
}

// ClusterMin is the capacity answer for one rate: the smallest fleet inside
// the sweep that holds every class's SLO, or 0 when none does.
type ClusterMin struct {
	Rate        float64
	MinReplicas int
	P99         time.Duration // the winning fleet's p99 (zero if none)
}

// ClusterCapacityResult carries the sweep and its summary.
type ClusterCapacityResult struct {
	Cost    serve.CostModel
	Profile ClusterProfile
	Classes []workload.Class
	Rows    []ClusterRow
	Min     []ClusterMin
}

// clusterConfig assembles the simulator config for one fleet size. The
// policy is constructed per run: policies are stateful (the round-robin
// cursor) and must not leak state across runs.
func clusterConfig(p ClusterProfile, cost serve.CostModel, replicas int) (cluster.Config, error) {
	pol, err := cluster.ParsePolicy(p.Policy)
	if err != nil {
		return cluster.Config{}, err
	}
	return cluster.Config{
		Replicas:          replicas,
		Cost:              cost,
		MaxBatch:          p.MaxBatch,
		MaxWait:           p.MaxWait,
		Policy:            pol,
		AdmitRate:         p.AdmitPerRep * float64(replicas),
		TowerCacheEntries: p.CacheEntries,
		EmbCacheEntries:   p.CacheEntries,
		EmbIDSpace:        p.EmbIDSpace,
	}, nil
}

// ClusterCapacity runs the sweep: per rate, one generated trace replayed
// against fleets of 1..MaxReplicas. Deterministic: same profile, same table.
func ClusterCapacity(p ClusterProfile) (ClusterCapacityResult, error) {
	cost := serve.NewCostModel(topology.A100, perfmodel.DLRMSpec(), p.Towers)
	classes := workload.DefaultClasses()
	res := ClusterCapacityResult{Cost: cost, Profile: p, Classes: classes}

	for ri, rate := range p.Rates {
		trace := workload.Generate(workload.Config{
			Arrival:  p.Arrival,
			Rate:     rate,
			Shape:    p.Shape,
			Requests: p.Requests,
			Samples:  p.Samples,
			ZipfS:    p.ZipfS,
			Classes:  classes,
			// Each rate gets its own stream; replica counts share it.
			Seed: p.Seed + uint64(ri)*1_000_003,
		})
		min := ClusterMin{Rate: rate}
		for n := 1; n <= p.MaxReplicas; n++ {
			cfg, err := clusterConfig(p, cost, n)
			if err != nil {
				return res, fmt.Errorf("experiments: cluster sweep: %w", err)
			}
			row := ClusterRow{Rate: rate, Result: cluster.Run(cfg, trace)}
			res.Rows = append(res.Rows, row)
			if row.MeetsSLO() && min.MinReplicas == 0 {
				min.MinReplicas = n
				min.P99 = row.P99
			}
		}
		res.Min = append(res.Min, min)
	}
	return res, nil
}

// FormatCluster renders the capacity-planning sweep: per arrival rate, the
// fleet sizes tried and which held every SLO class's p99, then the
// min-replica answers.
func FormatCluster(r ClusterCapacityResult) string {
	title := fmt.Sprintf("Cluster capacity planning (simulated): %s\npolicy=%s  arrival=%s  max-batch=%d  max-wait=%v  classes:",
		r.Cost, r.Profile.Policy, r.Profile.Arrival, r.Profile.MaxBatch, r.Profile.MaxWait)
	for _, c := range r.Classes {
		title += fmt.Sprintf(" %s(%.0f%%, %d item(s), p99<%v)", c.Name, c.Share*100, c.Items, c.SLO)
	}
	var answers []string
	for _, m := range r.Min {
		if m.MinReplicas == 0 {
			answers = append(answers, fmt.Sprintf("%.0f req/s needs >%d replicas", m.Rate, r.Profile.MaxReplicas))
		} else {
			answers = append(answers, fmt.Sprintf("%.0f req/s -> %d replica(s) (p99 %v)",
				m.Rate, m.MinReplicas, micros(m.P99)))
		}
	}
	return table[ClusterRow]{
		title: title,
		cols: []column[ClusterRow]{
			{"req/s", "%10.0f", func(r ClusterRow) any { return r.Rate }},
			{"replicas", "%9d", func(r ClusterRow) any { return r.Replicas }},
			{"served", "%9d", func(r ClusterRow) any { return r.Served }},
			{"rejected", "%9d", func(r ClusterRow) any { return r.Rejected }},
			{"p50", "%10s", func(r ClusterRow) any { return micros(r.P50) }},
			{"p95", "%10s", func(r ClusterRow) any { return micros(r.P95) }},
			{"p99", "%10s", func(r ClusterRow) any { return micros(r.P99) }},
			{"AvgBatch", "%9.1f", func(r ClusterRow) any { return r.AvgBatch }},
			{"TwrHit", "%7.1f%%", func(r ClusterRow) any { return r.Tower.HitRate() * 100 }},
			{"SLO", "%5s", func(r ClusterRow) any {
				if r.MeetsSLO() {
					return "YES"
				}
				return " no"
			}},
		},
		foot: []string{"", "capacity: " + strings.Join(answers, "; ")},
	}.render(r.Rows)
}
