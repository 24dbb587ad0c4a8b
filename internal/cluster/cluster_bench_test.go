package cluster

import (
	"testing"
	"time"

	"dmt/internal/perfmodel"
	"dmt/internal/serve"
	"dmt/internal/topology"
	"dmt/internal/workload"
)

// simFleetConfig is the sim_fleet workload's fleet: 4 replicas behind
// cache-affinity routing and token-bucket admission, 16 Ki-entry tower and
// embedding caches, rows folded onto 64 Ki ids per table.
func simFleetConfig() Config {
	return Config{
		Replicas:          4,
		Cost:              serve.NewCostModel(topology.A100, perfmodel.DLRMSpec(), 8),
		MaxBatch:          32,
		MaxWait:           200 * time.Microsecond,
		Policy:            CacheAffinity(0),
		AdmitRate:         3_200_000,
		TowerCacheEntries: 1 << 14,
		EmbCacheEntries:   1 << 14,
		EmbIDSpace:        1 << 16,
	}
}

// simFleetTrace is a sim_fleet-shaped trace of n requests: Poisson arrivals
// at 2.8 M/s, zipf-1.2 keys over 4 096 samples, the default class mix.
func simFleetTrace(n int, seed uint64) *workload.Trace {
	return workload.Generate(workload.Config{
		Arrival: workload.Poisson, Rate: 2_800_000, Requests: n,
		Samples: 4096, ZipfS: 1.2, Classes: workload.DefaultClasses(), Seed: seed,
	})
}

// BenchmarkHotpathClusterRun times one cluster.Run at sim_fleet's geometry
// over a 64 Ki-request trace, reporting ns per request beside the run's
// B/op and allocs/op.
func BenchmarkHotpathClusterRun(b *testing.B) {
	const requests = 1 << 16
	trace := simFleetTrace(requests, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if res := Run(simFleetConfig(), trace); res.Served+res.Rejected != requests {
			b.Fatalf("accounted for %d of %d requests", res.Served+res.Rejected, requests)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*requests), "ns/req")
}
