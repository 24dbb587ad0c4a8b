// Package core is the top-level orchestration API of the DMT reproduction —
// the surface a user of the library touches to go from "I have a
// recommendation model and a cluster" to "a tower-partitioned,
// throughput-predicted DMT deployment":
//
//	planner := core.NewPlanner(cluster)
//	plan, err := planner.Plan(featureEmbeddings)
//	model  := core.BuildDMTDLRM(plan, schema, seed)   // trainable DMT model
//	pred   := plan.Throughput                          // modeled speedup
//
// Plan runs the Tower Partitioner (§3.3) over per-feature embeddings, places
// each tower on its own host (sptt.TowerAssignment: the tower's tables
// round-robin over the host's GPUs), and prices the deployment with the
// calibrated performance model (§5.3). The resulting partition feeds the DMT
// model constructors (hierarchical interaction, §3.2) and the sptt.Engine
// (distributed dataflow, §3.1), which executes exactly that placement.
package core

import (
	"fmt"

	"dmt/internal/data"
	"dmt/internal/models"
	"dmt/internal/partition"
	"dmt/internal/perfmodel"
	"dmt/internal/sptt"
	"dmt/internal/tensor"
	"dmt/internal/topology"
)

// Planner configures DMT planning for a cluster.
type Planner struct {
	Cluster topology.Cluster
	// Strategy is the TP distance transform; the paper tries both and keeps
	// the better (§3.3). Coherent is the default (§5.2.3's findings).
	Strategy partition.Strategy
	// CompressionRatio selects the tower modules' output budget (Table 5's
	// quality/throughput dial).
	CompressionRatio float64
	// LocalBatch for throughput prediction.
	LocalBatch int
	// PerfSpec prices the deployment (defaults to the DLRM constants).
	PerfSpec perfmodel.ModelSpec
	Seed     uint64
}

// NewPlanner returns a planner with the paper's defaults: coherent TP,
// CR 2, one tower per host.
func NewPlanner(cluster topology.Cluster) *Planner {
	return &Planner{
		Cluster:          cluster,
		Strategy:         partition.Coherent,
		CompressionRatio: 2,
		LocalBatch:       16 * 1024,
		PerfSpec:         perfmodel.DLRMSpec(),
		Seed:             1,
	}
}

// Plan is a complete DMT deployment decision. Its placement — which tower
// and which rank hold each feature's table — is TowerOf/RankOf, the layout
// SPTTConfig hands the dataflow engine.
type Plan struct {
	Cluster topology.Cluster
	// Towers is the feature partition (tower t lives on host t).
	Towers [][]int
	// TowerOf / RankOf are the flattened assignment (sptt.Config layout).
	TowerOf []int
	RankOf  []int
	// Partition retains the TP artifacts (interaction matrix, coordinates).
	Partition *partition.Result
	// Throughput compares baseline, SPTT, and DMT on this cluster.
	Throughput ThroughputPrediction
	// CompressionRatio echoes the planner's setting.
	CompressionRatio float64
}

// ThroughputPrediction summarizes the modeled iteration costs.
type ThroughputPrediction struct {
	Baseline perfmodel.Breakdown
	SPTT     perfmodel.Breakdown
	DMT      perfmodel.Breakdown
	// SpeedupOverBaseline is DMT's end-to-end gain (Figure 10's bar for
	// this cluster).
	SpeedupOverBaseline float64
	// SPTTShare and TMShare decompose the gain (Figure 11's split).
	SPTTShare float64
	TMShare   float64
}

// Plan partitions features into one tower per host using the interaction
// structure of the provided per-feature embeddings (B, F, N), places each
// tower's tables on its host's ranks, and prices the deployment.
func (p *Planner) Plan(featureEmbeddings *tensor.Tensor) (*Plan, error) {
	if featureEmbeddings.Rank() != 3 {
		return nil, fmt.Errorf("core: feature embeddings must be (B, F, N), got %v", featureEmbeddings.Shape())
	}
	f := featureEmbeddings.Dim(1)
	numTowers := p.Cluster.Hosts
	if numTowers > f {
		return nil, fmt.Errorf("core: %d hosts but only %d features; every host's tower needs at least one feature", numTowers, f)
	}

	tp := partition.NewTP(p.Strategy, p.Seed)
	res, err := tp.PartitionEmbeddings(featureEmbeddings, numTowers)
	if err != nil {
		return nil, err
	}
	towerOf, rankOf, err := sptt.TowerAssignment(res.Groups, f, p.Cluster.GPUsPerHost)
	if err != nil {
		return nil, err
	}

	return &Plan{
		Cluster:          p.Cluster,
		Towers:           res.Groups,
		TowerOf:          towerOf,
		RankOf:           rankOf,
		Partition:        res,
		Throughput:       p.predict(),
		CompressionRatio: p.CompressionRatio,
	}, nil
}

func (p *Planner) predict() ThroughputPrediction {
	mk := func(sys perfmodel.System) perfmodel.Config {
		cfg := perfmodel.DefaultConfig(p.PerfSpec, p.Cluster, sys)
		cfg.LocalBatch = p.LocalBatch
		if sys == perfmodel.DMT {
			cfg.CompressionRatio = p.CompressionRatio
		}
		return cfg
	}
	base := perfmodel.Iterate(mk(perfmodel.Baseline))
	spttB := perfmodel.Iterate(mk(perfmodel.SPTT))
	dmt := perfmodel.Iterate(mk(perfmodel.DMT))
	return ThroughputPrediction{
		Baseline:            base,
		SPTT:                spttB,
		DMT:                 dmt,
		SpeedupOverBaseline: base.Total() / dmt.Total(),
		SPTTShare:           base.Total() / spttB.Total(),
		TMShare:             spttB.Total() / dmt.Total(),
	}
}

// SPTTConfig converts the plan into an sptt.Config for the distributed
// dataflow engine, given the workload's feature specs.
func (p *Plan) SPTTConfig(features []sptt.FeatureSpec, localBatch, embDim int) sptt.Config {
	return sptt.Config{
		G: p.Cluster.GPUs(), L: p.Cluster.GPUsPerHost,
		B: localBatch, N: embDim,
		Features: features,
		TowerOf:  p.TowerOf,
		RankOf:   p.RankOf,
	}
}

// BuildDMTDLRM constructs the trainable DMT-DLRM for a plan: tower modules
// per Listing 1 with c=1, p=0 and D chosen from the plan's compression
// ratio (D = N / CR).
func BuildDMTDLRM(plan *Plan, schema data.Schema, embDim int, seed uint64) *models.DMTDLRM {
	d := int(float64(embDim) / plan.CompressionRatio)
	if d < 1 {
		d = 1
	}
	return models.NewDMTDLRM(models.DMTDLRMConfig{
		Schema: schema, N: embDim, Towers: plan.Towers,
		C: 1, P: 0, D: d,
		BottomMLP: []int{2 * embDim, d},
		TopMLP:    []int{64, 32},
		Seed:      seed,
	})
}

// BuildDMTDCN constructs the trainable DMT-DCN for a plan (Listing 2).
func BuildDMTDCN(plan *Plan, schema data.Schema, embDim int, seed uint64) *models.DMTDCN {
	d := int(float64(embDim) / plan.CompressionRatio)
	if d < 1 {
		d = 1
	}
	return models.NewDMTDCN(models.DMTDCNConfig{
		Schema: schema, N: embDim, Towers: plan.Towers,
		D: d, TMCrossLayers: 1, CrossLayers: 2,
		DeepMLP: []int{64, 32},
		Seed:    seed,
	})
}
