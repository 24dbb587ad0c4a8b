package parallel

import (
	"testing"
	"testing/quick"

	"dmt/internal/netsim"
	"dmt/internal/perfmodel"
	"dmt/internal/quant"
	"dmt/internal/topology"
)

func TestEnumerateCountsFactorizations(t *testing.T) {
	// 64 = 2^6: number of (dp,tp,pp) ordered factorizations is C(6+2,2)=28.
	meshes := Enumerate(64)
	if len(meshes) != 28 {
		t.Fatalf("got %d meshes for 64 GPUs, want 28", len(meshes))
	}
	for _, m := range meshes {
		if m.DP*m.TP*m.PP != 64 {
			t.Fatalf("mesh %+v does not multiply to 64", m)
		}
	}
}

func TestDataParallelWinsTheSearch(t *testing.T) {
	// The paper's Figure 6 conclusion: pure data parallelism is the fastest
	// configuration for the dense part of DLRM.
	results := Search(quant.None)
	best := results[0]
	if !best.Mesh.IsDataParallel() {
		t.Fatalf("fastest mesh is %+v, want pure data parallelism", best.Mesh)
	}
	// And the spread must be wide (the CDF covers a broad latency range).
	worst := results[len(results)-1]
	if worst.Latency < 2*best.Latency {
		t.Fatalf("search space too flat: %.3fms .. %.3fms",
			best.Latency*1e3, worst.Latency*1e3)
	}
}

func TestTensorParallelismPaysActivationSync(t *testing.T) {
	dp := IterationLatency(quant.None, Mesh{DP: 64, TP: 1, PP: 1})
	tp := IterationLatency(quant.None, Mesh{DP: 8, TP: 8, PP: 1})
	if tp <= dp {
		t.Fatalf("tp=8 (%.3fms) should cost more than pure dp (%.3fms)", tp*1e3, dp*1e3)
	}
}

func TestPipelineBubbleCosts(t *testing.T) {
	dp := IterationLatency(quant.None, Mesh{DP: 64, TP: 1, PP: 1})
	pp := IterationLatency(quant.None, Mesh{DP: 8, TP: 1, PP: 8})
	if pp <= dp {
		t.Fatalf("pp=8 (%.3fms) should cost more than pure dp (%.3fms)", pp*1e3, dp*1e3)
	}
}

// TestDPRanksPerHost pins the hybrid-mesh fix: the DP group's co-located
// peer count shrinks by the intra-host slots TP/PP consume, while pure-DP
// meshes keep the original min(l, dp) — so Figure 6's pure-DP ranking is
// unchanged by the fix.
func TestDPRanksPerHost(t *testing.T) {
	cases := []struct {
		l    int
		mesh Mesh
		want int
	}{
		{8, Mesh{DP: 64, TP: 1, PP: 1}, 8}, // pure DP: full host
		{8, Mesh{DP: 4, TP: 1, PP: 1}, 4},  // pure DP smaller than a host
		{8, Mesh{DP: 8, TP: 8, PP: 1}, 1},  // TP fills the host: DP is cross-host
		{8, Mesh{DP: 8, TP: 1, PP: 8}, 1},  // PP fills the host
		{8, Mesh{DP: 16, TP: 2, PP: 2}, 2}, // tp*pp=4 leaves 2 DP peers per host
		{8, Mesh{DP: 2, TP: 2, PP: 1}, 2},  // DP degree caps the share
		{8, Mesh{DP: 1, TP: 64, PP: 1}, 1},
		{4, Mesh{DP: 8, TP: 2, PP: 4}, 1}, // tp*pp > l
	}
	for _, c := range cases {
		if got := dpRanksPerHost(c.l, c.mesh); got != c.want {
			t.Errorf("dpRanksPerHost(l=%d, %+v) = %d, want %d", c.l, c.mesh, got, c.want)
		}
	}
}

// TestHybridDPGradSyncCostsCrossHost: with 8-GPU hosts, tp=8 pushes every
// DP peer onto a different host, which must cost more than the same mesh
// would if its DP sync were (incorrectly) priced intra-host.
func TestHybridDPGradSyncCostsCrossHost(t *testing.T) {
	cluster := topology.NewCluster(topology.A100, gpus)
	l := cluster.GPUsPerHost
	m := Mesh{DP: 8, TP: 8, PP: 1}
	if rph := dpRanksPerHost(l, m); rph != 1 {
		t.Fatalf("tp=%d on %d-GPU hosts must isolate DP peers, got rph=%d", m.TP, l, rph)
	}
	fabric := netsim.New(cluster.Gen)
	shard := int(perfmodel.DLRMSpec().DenseBytes) / (m.TP * m.PP)
	cross := fabric.Time(netsim.AllReduce, m.DP, 1, shard)
	intra := fabric.Time(netsim.AllReduce, m.DP, l, shard)
	if cross <= intra {
		t.Fatalf("cross-host AllReduce (%v) should cost more than intra-host (%v)", cross, intra)
	}
}

func TestQuickEnumerateValid(t *testing.T) {
	f := func(k uint8) bool {
		gpus := []int{8, 16, 24, 32, 48, 64}[int(k)%6]
		for _, m := range Enumerate(gpus) {
			if m.DP < 1 || m.TP < 1 || m.PP < 1 || m.DP*m.TP*m.PP != gpus {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 12}); err != nil {
		t.Fatal(err)
	}
}
