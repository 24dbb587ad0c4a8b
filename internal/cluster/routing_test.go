package cluster

import (
	"testing"
	"time"

	"dmt/internal/perfmodel"
	"dmt/internal/serve"
	"dmt/internal/topology"
	"dmt/internal/workload"
)

// TestLeastLoadedBeatsRoundRobin is the crafted hot-replica trace: heavy
// ranking requests (10 items) alternate with light lookups (1 item), all
// arriving at t=0 on a 2-replica fleet with MaxBatch=1. Round-robin, blind
// to cost, stacks both heavy requests on replica 0; work-based least-loaded
// interleaves them. Every latency is a pure function of the cost model, so
// the percentiles are asserted exactly.
func TestLeastLoadedBeatsRoundRobin(t *testing.T) {
	cost := testCost()
	classes := []workload.Class{
		{Name: "heavy", Share: 0.5, Items: 10, SLO: time.Second},
		{Name: "light", Share: 0.5, Items: 1, SLO: time.Second},
	}
	reqs := []workload.Request{
		{Seq: 0, At: 0, Sample: 0, Class: 0, Items: 10},
		{Seq: 1, At: 0, Sample: 1, Class: 1, Items: 1},
		{Seq: 2, At: 0, Sample: 2, Class: 0, Items: 10},
		{Seq: 3, At: 0, Sample: 3, Class: 1, Items: 1},
	}
	base := Config{Replicas: 2, Cost: cost, MaxBatch: 1, MaxWait: time.Millisecond}

	H := cost.ForwardTime(10, 0) // heavy service time
	L := cost.ForwardTime(1, 0)  // light service time

	rrCfg := base
	rrCfg.Policy = RoundRobin()
	rr := Run(rrCfg, craftedTrace(classes, reqs))
	// RR: replica 0 serves heavy,heavy back to back (H, 2H); replica 1
	// serves light,light (L, 2L).
	if rr.P99 != 2*H {
		t.Fatalf("round-robin p99 = %v, want exactly 2H = %v", rr.P99, 2*H)
	}
	if rr.P50 != 2*L {
		t.Fatalf("round-robin p50 = %v, want exactly 2L = %v", rr.P50, 2*L)
	}

	llCfg := base
	llCfg.Policy = LeastLoaded()
	ll := Run(llCfg, craftedTrace(classes, reqs))
	// LL: heavy->0; light->1 (0 loaded H); heavy->1 (L < H); light->0.
	// Latencies: H, L, L+H, H+L. p99 = H+L, p50 = H.
	if ll.P99 != H+L {
		t.Fatalf("least-loaded p99 = %v, want exactly H+L = %v", ll.P99, H+L)
	}
	if ll.P50 != H {
		t.Fatalf("least-loaded p50 = %v, want exactly H = %v", ll.P50, H)
	}
	if ll.P99 >= rr.P99 {
		t.Fatalf("least-loaded p99 %v not better than round-robin %v", ll.P99, rr.P99)
	}
	// The heavy class is where the win lives.
	if ll.Classes[0].P99 >= rr.Classes[0].P99 {
		t.Fatalf("heavy-class p99: least-loaded %v vs round-robin %v", ll.Classes[0].P99, rr.Classes[0].P99)
	}
}

// TestCacheAffinityRaisesTowerHitRateCrafted pins the exact hit/miss
// arithmetic: 3 samples cycling over 12 well-spaced requests on 2 replicas.
// Round-robin splits each sample's visits across both replicas (each pays
// the cold miss twice); affinity keeps every sample home (one miss each).
func TestCacheAffinityRaisesTowerHitRateCrafted(t *testing.T) {
	cost := testCost()
	cost.Towers = 1
	cost.TowerShare = 0.6
	var reqs []workload.Request
	for i := 0; i < 12; i++ {
		reqs = append(reqs, workload.Request{
			Seq: i, At: time.Duration(i) * time.Millisecond, Sample: i % 3, Class: 0, Items: 1,
		})
	}
	base := Config{
		Replicas: 2, Cost: cost, MaxBatch: 1, MaxWait: time.Millisecond,
		TowerCacheEntries: 1 << 10,
	}

	rrCfg := base
	rrCfg.Policy = RoundRobin()
	rr := Run(rrCfg, craftedTrace(oneClass, reqs))
	if rr.Tower.Hits != 6 || rr.Tower.Misses != 6 {
		t.Fatalf("round-robin tower stats %+v, want exactly 6 hits / 6 misses", rr.Tower)
	}

	afCfg := base
	afCfg.Policy = CacheAffinity(0)
	af := Run(afCfg, craftedTrace(oneClass, reqs))
	if af.Tower.Hits != 9 || af.Tower.Misses != 3 {
		t.Fatalf("affinity tower stats %+v, want exactly 9 hits / 3 misses", af.Tower)
	}
	if af.Tower.HitRate() <= rr.Tower.HitRate() {
		t.Fatalf("affinity hit rate %.2f not above round-robin %.2f",
			af.Tower.HitRate(), rr.Tower.HitRate())
	}
}

// TestCacheAffinityRaisesTowerHitRateZipf runs the same comparison under a
// generated zipf-skewed open-loop trace on a realistic DMT cost model.
func TestCacheAffinityRaisesTowerHitRateZipf(t *testing.T) {
	cost := serve.NewCostModel(topology.A100, perfmodel.DLRMSpec(), 8)
	trace := workload.Generate(workload.Config{
		Arrival: workload.Poisson, Rate: 50_000, Requests: 2000, Samples: 512,
		ZipfS: 1.2, Classes: workload.DefaultClasses(), Seed: 5,
	})
	base := Config{
		Replicas: 4, Cost: cost, MaxBatch: 8, MaxWait: 200 * time.Microsecond,
		TowerCacheEntries: 1 << 12, EmbCacheEntries: 1 << 12,
		EmbIDSpace: 4096,
	}

	rrCfg := base
	rrCfg.Policy = RoundRobin()
	rr := Run(rrCfg, trace)

	afCfg := base
	afCfg.Policy = CacheAffinity(0)
	af := Run(afCfg, trace)

	if af.Tower.HitRate() <= rr.Tower.HitRate() {
		t.Fatalf("zipf trace: affinity tower hit rate %.3f not above round-robin %.3f",
			af.Tower.HitRate(), rr.Tower.HitRate())
	}
	if af.Served != rr.Served || af.Served != len(trace.Requests) {
		t.Fatalf("served rr=%d af=%d, want all %d", rr.Served, af.Served, len(trace.Requests))
	}
}

// TestTokenBucketRejectsExactExcess: burst 2 (MaxBatch tokens), 2 tokens/s.
// Four arrivals at t=0 spend the burst and reject the other two; one virtual
// second refills exactly two tokens, so of three arrivals at t=1s exactly
// one is rejected.
func TestTokenBucketRejectsExactExcess(t *testing.T) {
	cost := testCost()
	var reqs []workload.Request
	for i := 0; i < 4; i++ {
		reqs = append(reqs, workload.Request{Seq: i, At: 0, Sample: i, Class: 0, Items: 1})
	}
	for i := 4; i < 7; i++ {
		reqs = append(reqs, workload.Request{Seq: i, At: time.Second, Sample: i, Class: 0, Items: 1})
	}
	res := Run(Config{
		Replicas: 1, Cost: cost, MaxBatch: 2, MaxWait: time.Millisecond,
		AdmitRate: 2,
	}, craftedTrace(oneClass, reqs))

	if res.Rejected != 3 || res.Served != 4 {
		t.Fatalf("rejected=%d served=%d, want exactly 3 rejected / 4 served", res.Rejected, res.Served)
	}
	c := res.Classes[0]
	if c.Arrived != 7 || c.Rejected != 3 || c.Served != 4 {
		t.Fatalf("class counts %+v, want 7 arrived / 3 rejected / 4 served", c)
	}
	if want := 3.0 / 7.0; res.RejectRate() != want {
		t.Fatalf("reject rate %v, want exactly %v", res.RejectRate(), want)
	}
	if c.MeetsSLO() {
		t.Fatal("a class with rejections must not meet its SLO")
	}
}

func TestParsePolicy(t *testing.T) {
	for _, name := range []string{"round-robin", "least-loaded", "cache-affinity"} {
		p, err := ParsePolicy(name)
		if err != nil || p.Name() != name {
			t.Fatalf("ParsePolicy(%q) = %v, %v", name, p, err)
		}
	}
	if _, err := ParsePolicy("random"); err == nil {
		t.Fatal("unknown policy must error")
	}
}
