// Distributed training: DMT's actual training paradigm end to end —
// model-parallel embedding tables behind the SPTT dataflow, data-parallel
// over-arch replicas, and tower modules replicated per host GPU with
// intra-host gradient reduction (§2.2, §3.1, §3.2) — on an in-process
// cluster of 8 goroutine ranks across 2 hosts.
//
//	go run ./examples/distributed_training
package main

import (
	"fmt"

	"dmt/internal/data"
	"dmt/internal/distributed"
	"dmt/internal/metrics"
	"dmt/internal/models"
	"dmt/internal/nn"
	"dmt/internal/partition"
)

func main() {
	// Workload: 8 sparse features in 2 planted groups.
	dcfg := data.CriteoLike(21)
	dcfg.Cardinalities = make([]int, 8)
	dcfg.HotSizes = make([]int, 8)
	for i := range dcfg.Cardinalities {
		dcfg.Cardinalities[i] = 48
		dcfg.HotSizes[i] = 1
	}
	dcfg.NumGroups = 2
	gen := data.NewGenerator(dcfg)

	// Towers from TP: 2 hosts -> 2 towers.
	tp := partition.NewTP(partition.Coherent, 3)
	res, err := tp.PartitionEmbeddings(gen.LatentBatch(0, 128), 2)
	if err != nil {
		panic(err)
	}
	fmt.Println("TP towers:", res.Groups)

	const g, l, localBatch = 8, 4, 32
	cfg := distributed.Config{
		G: g, L: l, LocalBatch: localBatch,
		Model: models.DMTDLRMConfig{
			Schema: dcfg.Schema, N: 16, Towers: res.Groups,
			C: 1, P: 0, D: 8,
			BottomMLP: []int{32, 8}, TopMLP: []int{32},
			Seed: 5,
		},
		DenseLR: 2e-3, SparseLR: 2e-2, Seed: 9,
	}
	tr, err := distributed.New(cfg)
	if err != nil {
		panic(err)
	}

	fmt.Printf("training on %d ranks (%d hosts x %d GPUs), local batch %d (global %d)\n",
		g, g/l, l, localBatch, g*localBatch)
	const steps = 60
	for step := 0; step < steps; step++ {
		batches := make([]*data.Batch, g)
		for r := 0; r < g; r++ {
			batches[r] = gen.Batch(step*g*localBatch+r*localBatch, localBatch)
		}
		out := tr.Step(batches)
		if step%10 == 0 || step == steps-1 {
			fmt.Printf("  step %3d: mean loss %.4f\n", step, out.MeanLoss)
		}
	}
	if err := tr.ReplicasInSync(); err != nil {
		panic(err)
	}
	fmt.Println("replica sync check: over-arch and tower-module replicas bit-identical")

	// Evaluate on held-out samples with rank 0's replica, whose tables are
	// the trainer's one trained set.
	eval := gen.Batch(1<<22, 4096)
	logits := tr.Replica(0).Forward(eval)
	scores := nn.Predictions(logits)
	fmt.Printf("held-out AUC after %d distributed steps: %.4f\n",
		steps, metrics.AUC(scores, eval.Labels))
}
