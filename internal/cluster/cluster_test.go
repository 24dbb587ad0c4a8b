package cluster

import (
	"testing"
	"time"

	"dmt/internal/perfmodel"
	"dmt/internal/serve"
	"dmt/internal/topology"
	"dmt/internal/workload"
)

// testCost builds a bare cost model for hand-computable scenarios: no batch
// overhead, no towers, no embedding tables — service time is exactly
// ForwardTime(items, 0), a pure linear function of item count.
func testCost() serve.CostModel {
	return serve.CostModel{Gen: topology.A100, MFlopsPerSample: 390}
}

// craftedTrace builds a trace directly (bypassing the arrival-process
// generator) so tests control every arrival instant and item count.
func craftedTrace(classes []workload.Class, reqs []workload.Request) *workload.Trace {
	return &workload.Trace{Classes: classes, Requests: reqs}
}

var oneClass = []workload.Class{{Name: "lite", Share: 1, Items: 1, SLO: time.Second}}

func TestSingleRequestMaxWaitFlush(t *testing.T) {
	cost := testCost()
	tr := craftedTrace(oneClass, []workload.Request{
		{Seq: 0, At: 0, Sample: 0, Class: 0, Items: 1},
	})
	res := Run(Config{Replicas: 1, Cost: cost, MaxBatch: 8, MaxWait: time.Millisecond}, tr)

	service := cost.ForwardTime(1, 0)
	want := time.Millisecond + service // waits out the full MaxWait window alone
	if res.Served != 1 || res.Batches != 1 {
		t.Fatalf("served=%d batches=%d, want 1/1", res.Served, res.Batches)
	}
	if res.P50 != want || res.P99 != want {
		t.Fatalf("p50=%v p99=%v, want exactly %v", res.P50, res.P99, want)
	}
	c := res.Classes[0]
	if c.AvgBatchWait != time.Millisecond {
		t.Fatalf("batch wait %v, want exactly 1ms (the MaxWait window)", c.AvgBatchWait)
	}
	if c.AvgQueueWait != 0 || c.AvgCompute != service || c.AvgEmbFetch != 0 {
		t.Fatalf("breakdown queue=%v compute=%v emb=%v, want 0/%v/0",
			c.AvgQueueWait, c.AvgCompute, c.AvgEmbFetch, service)
	}
}

func TestFlushOnFullAndExecutorQueueing(t *testing.T) {
	cost := testCost()
	// Four simultaneous arrivals, MaxBatch=2: two full batches flush at t=0;
	// the single executor serves them back to back.
	reqs := make([]workload.Request, 4)
	for i := range reqs {
		reqs[i] = workload.Request{Seq: i, At: 0, Sample: i, Class: 0, Items: 1}
	}
	res := Run(Config{Replicas: 1, Cost: cost, MaxBatch: 2, MaxWait: time.Millisecond}, craftedTrace(oneClass, reqs))

	c := cost.ForwardTime(2, 0)
	if res.Batches != 2 || res.AvgBatch != 2 {
		t.Fatalf("batches=%d avg=%v, want 2 batches of 2", res.Batches, res.AvgBatch)
	}
	// Latencies: batch 1 completes at c (two requests), batch 2 at 2c.
	if res.P50 != c || res.P99 != 2*c {
		t.Fatalf("p50=%v p99=%v, want exactly %v and %v", res.P50, res.P99, c, 2*c)
	}
	cl := res.Classes[0]
	if cl.AvgBatchWait != 0 {
		t.Fatalf("batch wait %v, want 0 (both batches flushed on arrival)", cl.AvgBatchWait)
	}
	if want := c / 2; cl.AvgQueueWait != want { // (0+0+c+c)/4
		t.Fatalf("queue wait %v, want exactly %v", cl.AvgQueueWait, want)
	}
	if res.Duration != 2*c {
		t.Fatalf("makespan %v, want exactly %v", res.Duration, 2*c)
	}
}

func TestCacheAccountingMatchesKeyedSemantics(t *testing.T) {
	// A real DMT cost model: 8 towers, DLRM's 26 embedding tables. The same
	// sample served twice (spaced out, MaxBatch=1) must miss every tower and
	// table once, then hit every one — and the second batch must be priced
	// with the tower discount and zero fetch time.
	cost := serve.NewCostModel(topology.A100, perfmodel.DLRMSpec(), 8)
	tr := craftedTrace(oneClass, []workload.Request{
		{Seq: 0, At: 0, Sample: 7, Class: 0, Items: 1},
		{Seq: 1, At: 10 * time.Millisecond, Sample: 7, Class: 0, Items: 1},
	})
	res := Run(Config{
		Replicas: 1, Cost: cost, MaxBatch: 1, MaxWait: time.Millisecond,
		TowerCacheEntries: 1 << 10, EmbCacheEntries: 1 << 10,
	}, tr)

	if res.Tower.Hits != uint64(cost.Towers) || res.Tower.Misses != uint64(cost.Towers) {
		t.Fatalf("tower stats %+v, want exactly %d hits / %d misses", res.Tower, cost.Towers, cost.Towers)
	}
	if res.Emb.Hits != uint64(cost.EmbTables) || res.Emb.Misses != uint64(cost.EmbTables) {
		t.Fatalf("emb stats %+v, want exactly %d hits / %d misses", res.Emb, cost.EmbTables, cost.EmbTables)
	}
	coldCompute, coldFetch := cost.BatchTime(1, 0, cost.EmbTables)
	warmCompute, warmFetch := cost.BatchTime(1, cost.Towers, 0)
	if warmFetch != 0 || coldFetch == 0 {
		t.Fatalf("fetch cold=%v warm=%v, want positive then zero", coldFetch, warmFetch)
	}
	if warmCompute >= coldCompute {
		t.Fatalf("warm compute %v not cheaper than cold %v", warmCompute, coldCompute)
	}
	// The two latencies are exactly the two batch costs (no waiting at all).
	wantCold := coldCompute + coldFetch
	if res.P50 != warmCompute || res.P99 != wantCold {
		t.Fatalf("p50=%v p99=%v, want exactly %v and %v", res.P50, res.P99, warmCompute, wantCold)
	}
}

func TestEmbIDSpaceSharesRowsAcrossSamples(t *testing.T) {
	// With EmbIDSpace=1 every sample folds onto one row per table, so the
	// second (different) sample still hits every table.
	cost := serve.NewCostModel(topology.A100, perfmodel.DLRMSpec(), 8)
	tr := craftedTrace(oneClass, []workload.Request{
		{Seq: 0, At: 0, Sample: 1, Class: 0, Items: 1},
		{Seq: 1, At: 10 * time.Millisecond, Sample: 2, Class: 0, Items: 1},
	})
	res := Run(Config{
		Replicas: 1, Cost: cost, MaxBatch: 1, MaxWait: time.Millisecond,
		TowerCacheEntries: 1 << 10, EmbCacheEntries: 1 << 10,
		EmbIDSpace: 1,
	}, tr)
	if res.Emb.Hits != uint64(cost.EmbTables) || res.Emb.Misses != uint64(cost.EmbTables) {
		t.Fatalf("emb stats %+v, want %d hits / %d misses with a folded id space",
			res.Emb, cost.EmbTables, cost.EmbTables)
	}
	if res.Tower.Hits != 0 { // tower keys are per-sample: different samples never share
		t.Fatalf("tower hits %d, want 0 for distinct samples", res.Tower.Hits)
	}
}

// TestRunAllocatesNothingPerRequest pins the simulator's steady state at
// zero allocations: the event heap holds events unboxed, batch jobs live by
// value in a queue that restarts when it drains, and every served batch's
// slice goes back to the Batcher. Doubling the trace may add only the
// per-run set-up and the latency slices' growth, well under 0.01
// allocations per extra request.
func TestRunAllocatesNothingPerRequest(t *testing.T) {
	const n = 20_000
	cost := serve.NewCostModel(topology.A100, perfmodel.DLRMSpec(), 8)
	allocs := func(requests int) float64 {
		trace := workload.Generate(workload.Config{
			Arrival: workload.Poisson, Rate: 2_000_000, Requests: requests,
			Samples: 4096, ZipfS: 1.2, Classes: workload.DefaultClasses(), Seed: 3,
		})
		return testing.AllocsPerRun(1, func() {
			Run(Config{
				Replicas: 4, Cost: cost, MaxBatch: 32, MaxWait: 200 * time.Microsecond,
				Policy: CacheAffinity(0), TowerCacheEntries: 1 << 10, EmbCacheEntries: 1 << 10,
				EmbIDSpace: 1 << 12,
			}, trace)
		})
	}
	if per := (allocs(2*n) - allocs(n)) / n; per > 0.01 {
		t.Fatalf("%.3f allocations per extra request, want ~0", per)
	}
}
