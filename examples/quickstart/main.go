// Quickstart: plan a DMT deployment for a cluster and train the resulting
// model on the synthetic CTR workload.
//
//	go run ./examples/quickstart
//
// The flow mirrors how the paper's system is used (§3, §5): probe feature
// embeddings feed the Tower Partitioner (§3.3), each tower goes to its own
// host with its tables spread over the host's GPUs, the performance model
// (§5.3) prices the deployment, and the planned DMT-DLRM trains with
// hierarchical feature interaction (§3.2).
package main

import (
	"fmt"

	"dmt/internal/data"
	"dmt/internal/models"
	"dmt/internal/partition"
	"dmt/internal/perfmodel"
	"dmt/internal/sptt"
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

	// Plan for 32 A100s (4 hosts -> 4 towers): coherent TP, the paper's
	// default (§5.2.3), one tower per host.
	cluster := topology.NewCluster(topology.A100, 32)
	res, err := partition.NewTP(partition.Coherent, 1).PartitionEmbeddings(gen.LatentBatch(0, 128), cluster.Hosts)
	if err != nil {
		panic(err)
	}
	// Tower t's tables go round-robin over host t's GPUs: the placement an
	// sptt.Engine runs.
	if _, _, err := sptt.TowerAssignment(res.Groups, cfg.Schema.NumSparse(), cluster.GPUsPerHost); err != nil {
		panic(err)
	}

	fmt.Printf("planned %d towers on %s:\n", len(res.Groups), cluster)
	for t, feats := range res.Groups {
		fmt.Printf("  tower %d -> host %d: features %v\n", t, t, feats)
	}
	// Price the three systems at a 16K local batch, DMT's towers at
	// compression ratio 2.
	const compressionRatio = 2
	iterate := func(sys perfmodel.System) float64 {
		pc := perfmodel.DefaultConfig(perfmodel.DLRMSpec(), cluster, sys)
		pc.LocalBatch = 16 * 1024
		if sys == perfmodel.DMT {
			pc.CompressionRatio = compressionRatio
		}
		return perfmodel.Iterate(pc).Total()
	}
	base, spttT, dmt := iterate(perfmodel.Baseline), iterate(perfmodel.SPTT), iterate(perfmodel.DMT)
	fmt.Printf("modeled speedup over flat baseline: %.2fx (SPTT %.2fx x TM %.2fx)\n", base/dmt, base/spttT, spttT/dmt)

	// Train the planned model: tower modules per Listing 1 with c=1, p=0
	// and D = N / CR.
	const embDim = 16
	d := embDim / compressionRatio
	m := models.NewDMTDLRM(models.DMTDLRMConfig{
		Schema: cfg.Schema, N: embDim, Towers: res.Groups,
		C: 1, P: 0, D: d,
		BottomMLP: []int{2 * embDim, d},
		TopMLP:    []int{64, 32},
		Seed:      42,
	})
	tc := models.DefaultTrainConfig()
	tc.Steps = 300
	tc.BatchSize = 128
	tr := models.Train(m, gen, tc)
	fmt.Printf("trained %s: AUC %.4f, NE %.4f, %.2f MFlops/sample, %.2fM params\n",
		m.Name(), tr.AUC, tr.NE, tr.MFlopsPerSample, float64(tr.Params)/1e6)
}
