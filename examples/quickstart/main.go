// Quickstart: plan a DMT deployment for a cluster and train the resulting
// model on the synthetic CTR workload.
//
//	go run ./examples/quickstart
//
// The flow mirrors how the paper's system is used (§3, §5): probe feature
// embeddings feed the Tower Partitioner, the planner assigns one tower per
// host and spreads each tower's tables over its host's GPUs, the performance
// model prices the deployment, and the planned DMT-DLRM trains with
// hierarchical feature interaction.
package main

import (
	"fmt"

	"dmt/internal/core"
	"dmt/internal/data"
	"dmt/internal/models"
	"dmt/internal/topology"
)

func main() {
	// A Criteo-like workload, shrunk for an in-process demo.
	cfg := data.CriteoLike(7)
	cfg.Cardinalities = make([]int, 16)
	cfg.HotSizes = make([]int, 16)
	for i := range cfg.Cardinalities {
		cfg.Cardinalities[i] = 64
		cfg.HotSizes[i] = 1
	}
	cfg.NumGroups = 4
	gen := data.NewGenerator(cfg)

	// Plan for 32 A100s (4 hosts -> 4 towers).
	cluster := topology.NewCluster(topology.A100, 32)
	planner := core.NewPlanner(cluster)
	plan, err := planner.Plan(gen.LatentBatch(0, 128))
	if err != nil {
		panic(err)
	}

	fmt.Printf("planned %d towers on %s:\n", len(plan.Towers), cluster)
	for t, feats := range plan.Towers {
		fmt.Printf("  tower %d -> host %d: features %v\n", t, t, feats)
	}
	fmt.Printf("modeled speedup over flat baseline: %.2fx (SPTT %.2fx x TM %.2fx)\n",
		plan.Throughput.SpeedupOverBaseline, plan.Throughput.SPTTShare, plan.Throughput.TMShare)

	// Train the planned model.
	m := core.BuildDMTDLRM(plan, cfg.Schema, 16, 42)
	tc := models.DefaultTrainConfig()
	tc.Steps = 300
	tc.BatchSize = 128
	res := models.Train(m, gen, tc)
	fmt.Printf("trained %s: AUC %.4f, NE %.4f, %.2f MFlops/sample, %.2fM params\n",
		m.Name(), res.AUC, res.NE, res.MFlopsPerSample, float64(res.Params)/1e6)
}
