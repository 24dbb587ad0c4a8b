package core

import (
	"testing"

	"dmt/internal/data"
	"dmt/internal/models"
	"dmt/internal/partition"
	"dmt/internal/topology"
)

func testWorkload(seed uint64) (*data.Generator, data.Config) {
	cfg := data.CriteoLike(seed)
	cfg.Cardinalities = make([]int, 16)
	cfg.HotSizes = make([]int, 16)
	for i := range cfg.Cardinalities {
		cfg.Cardinalities[i] = 48
		cfg.HotSizes[i] = 1
	}
	cfg.NumGroups = 4
	return data.NewGenerator(cfg), cfg
}

func TestPlanEndToEnd(t *testing.T) {
	gen, _ := testWorkload(1)
	cluster := topology.NewCluster(topology.A100, 32) // 4 hosts
	pl := NewPlanner(cluster)
	plan, err := pl.Plan(gen.LatentBatch(0, 128))
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Towers) != 4 {
		t.Fatalf("%d towers for 4 hosts", len(plan.Towers))
	}
	// Every feature assigned, each tower's ranks on its own host.
	seen := map[int]bool{}
	for tw, feats := range plan.Towers {
		for _, f := range feats {
			if seen[f] {
				t.Fatalf("feature %d in two towers", f)
			}
			seen[f] = true
			if plan.TowerOf[f] != tw {
				t.Fatal("TowerOf inconsistent with Towers")
			}
			if plan.RankOf[f]/cluster.GPUsPerHost != tw {
				t.Fatalf("feature %d's rank %d not on host %d", f, plan.RankOf[f], tw)
			}
		}
	}
	if len(seen) != 16 {
		t.Fatalf("only %d features assigned", len(seen))
	}
	if plan.Throughput.SpeedupOverBaseline <= 1 {
		t.Fatalf("predicted speedup %v should exceed 1 on 32 GPUs", plan.Throughput.SpeedupOverBaseline)
	}
	// The gain decomposes into SPTT and TM shares.
	composed := plan.Throughput.SPTTShare * plan.Throughput.TMShare
	if diff := composed - plan.Throughput.SpeedupOverBaseline; diff > 1e-9 || diff < -1e-9 {
		t.Fatalf("speedup decomposition inconsistent: %v vs %v", composed, plan.Throughput.SpeedupOverBaseline)
	}
}

func TestPlanRejectsBadInputs(t *testing.T) {
	gen, _ := testWorkload(2)
	cluster := topology.NewCluster(topology.A100, 32)
	pl := NewPlanner(cluster)
	if _, err := pl.Plan(gen.LatentBatch(0, 16).Reshape(16, -1)); err == nil {
		t.Fatal("non-3D embeddings must error")
	}
	big := topology.NewCluster(topology.A100, 512) // 64 hosts > 16 features
	if _, err := NewPlanner(big).Plan(gen.LatentBatch(0, 16)); err == nil {
		t.Fatal("more hosts than features must error with guidance")
	}
}

func TestBuiltModelTrains(t *testing.T) {
	gen, cfg := testWorkload(3)
	cluster := topology.NewCluster(topology.A100, 16) // 2 hosts
	pl := NewPlanner(cluster)
	plan, err := pl.Plan(gen.LatentBatch(0, 128))
	if err != nil {
		t.Fatal(err)
	}
	m := BuildDMTDLRM(plan, cfg.Schema, 16, 7)
	tc := models.DefaultTrainConfig()
	tc.Steps = 150
	tc.BatchSize = 96
	tc.EvalSamples = 2048
	res := models.Train(m, gen, tc)
	if res.AUC < 0.55 {
		t.Fatalf("planned DMT model failed to learn: AUC %v", res.AUC)
	}
	dcn := BuildDMTDCN(plan, cfg.Schema, 16, 7)
	if dcn.ParamCount() <= 0 {
		t.Fatal("DCN build broken")
	}
}

func TestSPTTConfigFromPlan(t *testing.T) {
	gen, _ := testWorkload(4)
	cluster := topology.NewCluster(topology.A100, 16)
	plan, err := NewPlanner(cluster).Plan(gen.LatentBatch(0, 64))
	if err != nil {
		t.Fatal(err)
	}
	scfg := plan.SPTTConfig(nil, 4, 16)
	if scfg.G != 16 || scfg.L != cluster.GPUsPerHost || scfg.B != 4 || scfg.N != 16 {
		t.Fatalf("SPTT config wrong: G=%d L=%d B=%d N=%d", scfg.G, scfg.L, scfg.B, scfg.N)
	}
	if len(scfg.TowerOf) != 16 || len(scfg.RankOf) != 16 {
		t.Fatal("plan assignment not threaded into the SPTT config")
	}
}

func TestPlannerStrategyAffectsPartition(t *testing.T) {
	gen, _ := testWorkload(5)
	cluster := topology.NewCluster(topology.A100, 32)
	coh := NewPlanner(cluster)
	div := NewPlanner(cluster)
	div.Strategy = partition.Diverse
	pc, err := coh.Plan(gen.LatentBatch(0, 128))
	if err != nil {
		t.Fatal(err)
	}
	pd, err := div.Plan(gen.LatentBatch(0, 128))
	if err != nil {
		t.Fatal(err)
	}
	wc, cc := partition.WithinCrossAffinity(pc.Partition.Interaction, pc.Towers)
	wd, cd := partition.WithinCrossAffinity(pd.Partition.Interaction, pd.Towers)
	if wc-cc <= wd-cd {
		t.Fatalf("coherent (%v/%v) should concentrate affinity more than diverse (%v/%v)", wc, cc, wd, cd)
	}
}
