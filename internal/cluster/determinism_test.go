package cluster

import (
	"cmp"
	"math/rand/v2"
	"reflect"
	"runtime"
	"slices"
	"testing"
	"time"

	"dmt/internal/perfmodel"
	"dmt/internal/serve"
	"dmt/internal/topology"
	"dmt/internal/workload"
)

// TestSimulatorDeterministicAcrossRunsAndProcs is the reproducibility gate:
// one trace replayed through the simulator must produce a deeply identical
// Result on every run and at every GOMAXPROCS setting — the property that
// makes capacity answers diffable in CI.
func TestSimulatorDeterministicAcrossRunsAndProcs(t *testing.T) {
	cost := serve.NewCostModel(topology.A100, perfmodel.DLRMSpec(), 8)
	wcfg := workload.Config{
		Arrival: workload.Gamma, Rate: 80_000, Shape: 2, Requests: 1500,
		Samples: 256, ZipfS: 1.15, Classes: workload.DefaultClasses(), Seed: 11,
	}
	trace := workload.Generate(wcfg)

	cfg := Config{
		Replicas: 3, Cost: cost, MaxBatch: 8, MaxWait: 200 * time.Microsecond,
		Policy: CacheAffinity(0), AdmitRate: 120_000,
		TowerCacheEntries: 1 << 12, EmbCacheEntries: 1 << 12, EmbIDSpace: 4096,
	}
	baseline := Run(cfg, trace)
	if baseline.Served == 0 {
		t.Fatal("baseline run served nothing")
	}

	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 2, runtime.NumCPU()} {
		runtime.GOMAXPROCS(procs)
		for run := 0; run < 2; run++ {
			// Policies carry internal state (the round-robin counter), so each
			// run gets a fresh one — as any caller constructing a Config would.
			c := cfg
			c.Policy = CacheAffinity(0)
			got := Run(c, trace)
			if !reflect.DeepEqual(baseline, got) {
				t.Fatalf("GOMAXPROCS=%d run %d diverged from baseline:\n got %+v\nwant %+v",
					procs, run, got, baseline)
			}
		}
	}
}

// TestGenerateIsPureFunctionOfConfig re-generates the same workload config
// and requires deeply equal traces — the trace side of the gate.
func TestGenerateIsPureFunctionOfConfig(t *testing.T) {
	wcfg := workload.Config{
		Arrival: workload.Weibull, Rate: 30_000, Shape: 1.5, Requests: 800,
		Samples: 128, ZipfS: 1.3, Classes: workload.DefaultClasses(), Seed: 42,
	}
	if a, b := workload.Generate(wcfg), workload.Generate(wcfg); !reflect.DeepEqual(a, b) {
		t.Fatal("same workload config produced different traces")
	}
}

// TestUnsortedTraceRunsInArrivalOrder: Run serves requests by arrival
// instant, not by their position in the trace, and leaves the caller's
// trace as it was.
func TestUnsortedTraceRunsInArrivalOrder(t *testing.T) {
	cost := serve.NewCostModel(topology.A100, perfmodel.DLRMSpec(), 8)
	trace := workload.Generate(workload.Config{
		Arrival: workload.Poisson, Rate: 200_000, Requests: 2000,
		Samples: 256, ZipfS: 1.2, Classes: workload.DefaultClasses(), Seed: 5,
	})
	cfg := func() Config {
		return Config{
			Replicas: 2, Cost: cost, MaxBatch: 8, MaxWait: 100 * time.Microsecond,
			Policy: LeastLoaded(), TowerCacheEntries: 1 << 10, EmbCacheEntries: 1 << 10,
		}
	}
	want := Run(cfg(), trace)

	// Reverse every 7-request stretch: arrivals now go back and forth.
	shuffled := &workload.Trace{Classes: trace.Classes, Requests: slices.Clone(trace.Requests)}
	for i := 0; i < len(shuffled.Requests); i += 7 {
		slices.Reverse(shuffled.Requests[i:min(i+7, len(shuffled.Requests))])
	}
	before := slices.Clone(shuffled.Requests)
	if got := Run(cfg(), shuffled); !reflect.DeepEqual(got, want) {
		t.Fatalf("unsorted trace:\n got %+v\nwant %+v", got, want)
	}
	if !slices.Equal(shuffled.Requests, before) {
		t.Fatal("Run reordered the caller's trace")
	}
}

// TestEventHeapPopsInOrder interleaves pushes and pops of events with many
// tied instants: every pop must return the least pending event by
// (at, seq), the order container/heap gave.
func TestEventHeapPopsInOrder(t *testing.T) {
	rng := rand.New(rand.NewPCG(5, 6))
	var h eventHeap
	var pending []event // the model: pending events, sorted by (at, seq)
	byAtSeq := func(a, b event) int {
		if c := cmp.Compare(a.at, b.at); c != 0 {
			return c
		}
		return cmp.Compare(a.seq, b.seq)
	}
	for seq := int64(0); seq < 5000 || len(pending) > 0; {
		if seq < 5000 && (len(pending) == 0 || rng.IntN(3) > 0) {
			e := event{at: time.Duration(rng.IntN(64)), seq: seq, rep: int(seq)}
			seq++
			h.push(e)
			i, _ := slices.BinarySearchFunc(pending, e, byAtSeq)
			pending = slices.Insert(pending, i, e)
			continue
		}
		if got := h.pop(); got != pending[0] {
			t.Fatalf("popped %+v, want %+v", got, pending[0])
		}
		pending = pending[1:]
		if len(h) != len(pending) {
			t.Fatalf("heap holds %d events, want %d", len(h), len(pending))
		}
	}
}
