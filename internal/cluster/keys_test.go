package cluster

import (
	"fmt"
	"math/rand/v2"
	"reflect"
	"runtime"
	"slices"
	"testing"
	"time"

	"dmt/internal/embeddings"
	"dmt/internal/perfmodel"
	"dmt/internal/serve"
	"dmt/internal/topology"
	"dmt/internal/workload"
)

// referenceRun is Run keying every request afresh and sorting its
// latencies: each request gets a slot of its own, its keys derived from its
// sample at the position of each touch, and every percentile is read off a
// sorted copy by workload.Percentile.
func referenceRun(cfg Config, trace *workload.Trace) Result {
	reqs := arrivalOrder(trace.Requests)
	towers, tables := max(cfg.Cost.Towers, 0), max(cfg.Cost.EmbTables, 0)
	kt := &keyTable{towers: towers, width: towers + tables, slot: make([]int32, len(reqs))}
	for i, rq := range reqs {
		kt.slot[i] = int32(i)
		sample := uint64(rq.Sample)
		for t := 0; t < towers; t++ {
			kt.keys = append(kt.keys, embeddings.NsKey(t, sample))
		}
		for f := 0; f < tables; f++ {
			id := embeddings.NsKey(f, sample)
			if cfg.EmbIDSpace > 0 {
				id %= uint64(cfg.EmbIDSpace)
			}
			kt.keys = append(kt.keys, embeddings.NsKey(f, id))
		}
	}
	s := run(cfg, trace.Classes, reqs, kt)

	var all []time.Duration
	sorted := make([][]time.Duration, len(s.classes))
	for c, acc := range s.classes {
		sorted[c] = slices.Sorted(slices.Values(acc.lats))
		all = append(all, acc.lats...)
	}
	slices.Sort(all)
	res := s.result()
	for c := range res.Classes {
		cr := &res.Classes[c]
		cr.P50 = workload.Percentile(sorted[c], 0.50)
		cr.P95 = workload.Percentile(sorted[c], 0.95)
		cr.P99 = workload.Percentile(sorted[c], 0.99)
	}
	res.P50 = workload.Percentile(all, 0.50)
	res.P95 = workload.Percentile(all, 0.95)
	res.P99 = workload.Percentile(all, 0.99)
	return res
}

// TestRunMatchesFreshKeying runs random traces through random fleets — 1–4
// replicas, every policy, caches on and off, rows folded onto 64 Ki ids or
// not, sample ids that include sparse ones past 1<<40 — and holds Run's
// Result to referenceRun's, field for field.
func TestRunMatchesFreshKeying(t *testing.T) {
	rng := rand.New(rand.NewPCG(53, 1))
	policies := []func() Policy{RoundRobin, LeastLoaded, func() Policy { return CacheAffinity(0) }}
	for trial := 0; trial < 24; trial++ {
		trace := workload.Generate(workload.Config{
			Arrival: workload.Dist(rng.IntN(3)), Rate: 200_000 + float64(rng.IntN(2_000_000)), Shape: 0.5 + rng.Float64(),
			Requests: 500 + rng.IntN(2500), Samples: 1 + rng.IntN(600), ZipfS: 1.05 + rng.Float64(),
			Classes: workload.DefaultClasses(), Seed: rng.Uint64(),
		})
		if trial%2 == 1 {
			for i := range trace.Requests {
				if s := trace.Requests[i].Sample; s%5 == 2 {
					trace.Requests[i].Sample = 1<<40 + s
				}
			}
		}
		cacheEntries := 0
		if trial%4 != 0 {
			cacheEntries = 16 << rng.IntN(8)
		}
		embIDSpace := 0
		if rng.IntN(2) == 1 {
			embIDSpace = 1 << 16
		}
		pick := rng.IntN(len(policies))
		c := Config{
			Replicas: 1 + trial%4, Cost: serve.NewCostModel(topology.A100, perfmodel.DLRMSpec(), 1+rng.IntN(8)),
			MaxBatch: 1 + rng.IntN(32), MaxWait: time.Duration(20+rng.IntN(400)) * time.Microsecond,
			Policy: policies[pick](), AdmitRate: float64(rng.IntN(2)) * 1_500_000,
			TowerCacheEntries: cacheEntries, EmbCacheEntries: cacheEntries, EmbIDSpace: embIDSpace,
		}
		want := referenceRun(c, trace)
		c.Policy = policies[pick]() // policies keep state: a fresh one per run
		got := Run(c, trace)
		name := fmt.Sprintf("trial %d (%d replicas, %s, cache %d, id space %d)", trial, c.Replicas, c.Policy.Name(), cacheEntries, embIDSpace)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s:\n got %+v\nwant %+v", name, got, want)
		}
		if cacheEntries > 0 && (want.Emb.Hits == 0 || want.Emb.Misses == 0) {
			t.Fatalf("%s: embedding cache made %d hits and %d misses; the trial must make both", name, want.Emb.Hits, want.Emb.Misses)
		}
	}
}

// TestSparseSampleIDsAllocateByTrace: the key table grows with the trace's
// distinct samples, not with its largest id, so a trace of ids up to 1<<62
// runs within a few megabytes.
func TestSparseSampleIDsAllocateByTrace(t *testing.T) {
	trace := workload.Generate(workload.Config{
		Arrival: workload.Poisson, Rate: 500_000, Requests: 4000,
		Samples: 64, ZipfS: 1.2, Classes: workload.DefaultClasses(), Seed: 3,
	})
	for i := range trace.Requests {
		trace.Requests[i].Sample <<= 56
	}
	cfg := simFleetConfig()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	res := Run(cfg, trace)
	runtime.ReadMemStats(&m1)
	if res.Served+res.Rejected != len(trace.Requests) {
		t.Fatalf("accounted for %d of %d requests", res.Served+res.Rejected, len(trace.Requests))
	}
	if b := m1.TotalAlloc - m0.TotalAlloc; b > 8<<20 {
		t.Fatalf("Run over %d requests with ids up to %d allocated %d bytes", len(trace.Requests), 63<<56, b)
	}
}

// TestRunAllocsDoNotGrowPerRequest pins the simulator's allocations at
// sim_fleet's geometry: a run over 16 Ki requests may allocate at most
// 160 more times than one over 4 Ki. The difference is the LRU cores'
// entry slices doubling towards capacity (64 cores here, ≈ 115 of it), the
// batchers' spare batches up to the deepest queue and the key table's
// doublings; an allocation per request, or per latency, would add 12 288.
func TestRunAllocsDoNotGrowPerRequest(t *testing.T) {
	allocs := func(n int) float64 {
		trace := simFleetTrace(n, 1)
		return testing.AllocsPerRun(2, func() { Run(simFleetConfig(), trace) })
	}
	small, large := allocs(4<<10), allocs(16<<10)
	if large-small > 160 {
		t.Fatalf("Run allocates %v times over 4 Ki requests and %v over 16 Ki: %v more, want <= 160", small, large, large-small)
	}
}
