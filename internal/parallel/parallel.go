// Package parallel reproduces the paper's Figure 6 experiment: an
// Alpa-style enumeration of parallelism strategies for the dense part of a
// recommendation model, showing that plain data parallelism is the fastest
// point in the search space — which is why hybrid parallelism (model-
// parallel embeddings + data-parallel dense) is near-optimal and why the
// paper argues the model itself must change (§2.4).
//
// The search enumerates (dp, tp, pp) logical meshes with dp·tp·pp = G and
// costs each configuration:
//
//   - compute splits perfectly across all GPUs (optimistic for tp/pp, which
//     only strengthens the conclusion);
//   - tensor parallelism pays two activation AllReduces per layer within
//     tp-sized groups;
//   - pipeline parallelism pays the classic bubble (pp−1)/(m+pp−1) plus
//     point-to-point activation transfers;
//   - data parallelism pays the gradient AllReduce over dp-sized groups;
//   - the sparse component's global AlltoAlls are invariant across dense
//     strategies and added to every configuration.
package parallel

import (
	"sort"

	"dmt/internal/netsim"
	"dmt/internal/perfmodel"
	"dmt/internal/quant"
	"dmt/internal/topology"
)

// Mesh is one point of the search space.
type Mesh struct {
	DP, TP, PP int
}

// IsDataParallel reports whether the mesh is the pure-DP configuration.
func (m Mesh) IsDataParallel() bool { return m.TP == 1 && m.PP == 1 }

// Enumerate lists all (dp, tp, pp) factorizations of gpus.
func Enumerate(gpus int) []Mesh {
	var out []Mesh
	for dp := 1; dp <= gpus; dp++ {
		if gpus%dp != 0 {
			continue
		}
		rest := gpus / dp
		for tp := 1; tp <= rest; tp++ {
			if rest%tp != 0 {
				continue
			}
			out = append(out, Mesh{DP: dp, TP: tp, PP: rest / tp})
		}
	}
	return out
}

// The Figure 6 study, the paper's setup: the dense part of DLRM
// (perfmodel.DLRMSpec) on 64 A100 GPUs at the evaluation batch size.
const (
	gpus       = 64
	localBatch = 16 * 1024
	// denseLayers approximates the dense network depth (activation
	// AllReduce count for tp; stage count granularity for pp).
	denseLayers = 8
	// activationBytesPerSample is the per-layer activation footprint.
	activationBytesPerSample = 512 * 4
	// microBatches for pipeline execution.
	microBatches = 8
)

// Result is one costed configuration.
type Result struct {
	Mesh    Mesh
	Latency float64 // seconds per iteration
}

// IterationLatency costs one mesh with its links quantized by scheme s:
// the dense-gradient AllReduce shard and the sparse AlltoAll payloads
// shrink to the scheme's wire footprint (the backward embedding hop keeps
// its fp16 floor). quant.None reproduces the uncompressed Figure 6 costing
// exactly; compression helps pure DP most — its only communication is the
// gradient AllReduce — so the pure-DP-wins ranking is preserved.
func IterationLatency(s quant.Scheme, m Mesh) float64 {
	model := perfmodel.DLRMSpec()
	cluster := topology.NewCluster(topology.A100, gpus)
	l := cluster.GPUsPerHost
	fabric := netsim.New(cluster.Gen)
	globalBatch := localBatch * gpus

	// Dense compute: the global batch's flops spread over all GPUs
	// regardless of how the mesh slices them (perfect-split optimism).
	eff := perfmodel.EffectiveTFlops(cluster.Gen)
	compute := model.MFlopsPerSample * 1e6 * float64(globalBatch) / float64(gpus) / (eff * 1e12)

	// Tensor parallelism: 2 AllReduces per layer over tp ranks of the
	// per-rank activation slab.
	var tpComm float64
	if m.TP > 1 {
		perRankSamples := globalBatch / m.DP / m.PP
		actBytes := perRankSamples * activationBytesPerSample
		rph := m.TP
		if rph > l {
			rph = l
		}
		tpComm = float64(2*denseLayers) * fabric.Time(netsim.AllReduce, m.TP, rph, actBytes)
	}

	// Pipeline parallelism: bubble over the compute, plus stage-boundary
	// activation sends (costed as 1/tp'th of an AllReduce between stages).
	var ppOverhead float64
	if m.PP > 1 {
		bubble := float64(m.PP-1) / float64(microBatches+m.PP-1)
		ppOverhead = float64(compute * bubble)
		perRankSamples := globalBatch / m.DP
		actBytes := perRankSamples * activationBytesPerSample
		ppOverhead += float64(m.PP-1) * float64(actBytes) / (cluster.Gen.ScaleOutGBps() * 1e9)
	}

	// Data parallelism: gradient AllReduce of the dense bytes shard, at the
	// wire scheme's footprint when compression is on.
	var dpComm float64
	if m.DP > 1 {
		shard := perfmodel.CompressedBytes(s, int(model.DenseBytes)/4/(m.TP*m.PP))
		dpComm = fabric.Time(netsim.AllReduce, m.DP, dpRanksPerHost(l, m), shard)
	}

	// Sparse component: invariant global AlltoAlls (fwd fp32 + bwd fp16,
	// both capped by the wire scheme).
	embElems := model.EmbElemsPerSample * localBatch
	embBytes := perfmodel.CompressedBytes(s, embElems)
	gradBytes := 2 * embElems
	if embBytes < gradBytes {
		gradBytes = embBytes
	}
	sparse := fabric.Time(netsim.AlltoAll, gpus, l, embBytes) +
		fabric.Time(netsim.AlltoAll, gpus, l, gradBytes)

	return compute + tpComm + ppOverhead + dpComm + sparse
}

// dpRanksPerHost returns how many ranks of one data-parallel group share a
// host. TP and PP occupy tp·pp consecutive intra-host slots, so only
// l/(tp·pp) DP peers (at least one) are co-located; with tp·pp ≥ l the DP
// AllReduce is entirely cross-host. Assuming l co-located DP peers for
// hybrid meshes undercosted their gradient sync. For pure DP (tp=pp=1) this
// reduces to min(l, dp), the original Figure 6 costing, so the pure-DP
// ranking is unchanged.
func dpRanksPerHost(l int, m Mesh) int {
	rph := l / (m.TP * m.PP)
	if rph < 1 {
		rph = 1
	}
	if rph > m.DP {
		rph = m.DP
	}
	return rph
}

// Search costs every mesh at wire scheme s and returns results sorted by
// latency (the CDF's x-axis order).
func Search(s quant.Scheme) []Result {
	meshes := Enumerate(gpus)
	out := make([]Result, 0, len(meshes))
	for _, m := range meshes {
		out = append(out, Result{Mesh: m, Latency: IterationLatency(s, m)})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Latency < out[j].Latency })
	return out
}
