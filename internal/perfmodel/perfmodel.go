// Package perfmodel predicts per-iteration wall-clock for hybrid-parallel
// recommendation training — the quantity behind Figures 1, 10, 11, 12 and
// 13 of the paper — by composing the netsim collective model with a
// compute-throughput model.
//
// An iteration decomposes into (§2.2, §2.3):
//
//   - compute: forward+backward dense math, MFlops/sample × local batch over
//     the generation's achieved training throughput;
//   - embedding communication: the input-index AlltoAll plus forward
//     embedding and backward gradient AlltoAlls (baseline: one global world;
//     SPTT/DMT: intra-host AlltoAll on NVLink + peer AlltoAlls in a world of
//     T = G/L, with DMT dividing cross-host bytes by the compression ratio);
//   - dense synchronization: the gradient AllReduce (DMT's tower modules
//     synchronize intra-host only);
//   - others: input pipeline and kernel-launch residue.
//
// Communication is partially overlapped with compute (the Strong Baseline
// enables overlapped compute/communication, §5.1); the exposed remainder is
// what Figure 1 measures.
//
// Calibration: achieved training throughput per generation is fitted to
// Figure 13's DCN compute time on 64×H100 (29.4 ms at batch 16K) and scaled
// to V100/A100 by public MLPerf-class efficiency ratios; the collective
// curves come from netsim's Figure 5 fit. Absolute times are simulator
// outputs; the experiments assert shapes and ratios, not milliseconds.
package perfmodel

import (
	"fmt"
	"math"

	"dmt/internal/netsim"
	"dmt/internal/quant"
	"dmt/internal/topology"
)

// System selects the training paradigm being modeled.
type System int

// Systems.
const (
	Baseline System = iota // flat global AlltoAll (Figure 4)
	SPTT                   // tower transform, no compression (Figure 7)
	DMT                    // SPTT + tower modules (compression)
)

// String names the system.
func (s System) String() string {
	switch s {
	case Baseline:
		return "Baseline"
	case SPTT:
		return "SPTT"
	case DMT:
		return "DMT"
	default:
		return fmt.Sprintf("System(%d)", int(s))
	}
}

// ModelSpec carries the workload constants of one model family, using the
// paper's own reported numbers where it reports them.
type ModelSpec struct {
	Name string
	// MFlopsPerSample of the unmodified model (Table 4: DLRM 14.74,
	// DCN 96.22; §5.1: XLRM ≈ 700).
	MFlopsPerSample float64
	// DMTMFlops maps tower count to the DMT variant's MFlops/sample
	// (Table 4's measurements); towers outside the map use the nearest key.
	DMTMFlops map[int]float64
	// EmbElemsPerSample is F × N: embedding elements moved per sample per
	// direction (26 × 128 for the open-source models).
	EmbElemsPerSample int
	// IndexElemsPerSample is the sparse-input volume per sample.
	IndexElemsPerSample int
	// DenseBytes is the dense-gradient AllReduce buffer (§2.3.1 uses 64 MB
	// for the open-source models).
	DenseBytes int64
	// DefaultCR is the tower-module compression ratio of the model's
	// standard DMT configuration: 2 for DLRM (c=1, p=0, D=64 at N=128,
	// §5.2.2); 1 for DCN (D=128=N, so F·D output elements — DCN's DMT wins
	// come from SPTT and reduced compute, not compression).
	DefaultCR float64
}

// DLRMSpec returns the open-source DLRM constants.
func DLRMSpec() ModelSpec {
	return ModelSpec{
		Name:            "DLRM",
		MFlopsPerSample: 14.74,
		DMTMFlops: map[int]float64{
			2: 8.95, 4: 8.95, 8: 8.95, 16: 8.75, 26: 8.95, 32: 8.95, 64: 8.95,
		},
		EmbElemsPerSample:   26 * 128,
		IndexElemsPerSample: 26,
		DenseBytes:          64 << 20,
		DefaultCR:           2,
	}
}

// DCNSpec returns the open-source DCN constants.
func DCNSpec() ModelSpec {
	return ModelSpec{
		Name:            "DCN",
		MFlopsPerSample: 96.22,
		DMTMFlops: map[int]float64{
			2: 43.71, 4: 50.01, 8: 62.60, 16: 87.19, 26: 96.22, 32: 96.22, 64: 96.22,
		},
		EmbElemsPerSample:   26 * 128,
		IndexElemsPerSample: 26,
		DenseBytes:          64 << 20,
		DefaultCR:           1,
	}
}

// XLRMSpec returns the internal-scale model analog: ~700 MFlops/sample and
// a far larger sparse component (§5.1: 2T parameters). The embedding volume
// per sample is set so the model stays compute-bound, which is why the
// paper reports lower DMT speedups for XLRM (§5.3.1).
func XLRMSpec() ModelSpec {
	return ModelSpec{
		Name:            "XLRM",
		MFlopsPerSample: 700,
		DMTMFlops: map[int]float64{
			16: 640, 32: 660, 64: 680,
		},
		EmbElemsPerSample:   384 * 128,
		IndexElemsPerSample: 384,
		DenseBytes:          256 << 20,
		DefaultCR:           2,
	}
}

// EffectiveTFlops is the achieved training throughput per GPU (TF/s),
// calibrated as described in the package comment. Newer parts have lower
// utilization of their (much larger) peaks — the §1 divergence in practice.
// It is exported so other cost models (package parallel) share the same
// calibration instead of keeping a copy.
func EffectiveTFlops(gen topology.Generation) float64 {
	switch gen.Name {
	case "V100":
		return 7.85 // 50% of 15.7 TF/s
	case "A100":
		return 39.0 // 25% of 156 TF/s
	case "H100":
		return 53.6 // 5.4% of 989 TF/s, from Figure 13: 29.4 ms for 1.576 TF
	default:
		return gen.PeakTFlops * 0.25
	}
}

// Config describes one training deployment to cost.
type Config struct {
	Model      ModelSpec
	Cluster    topology.Cluster
	LocalBatch int
	System     System
	// Towers is the tower count for SPTT/DMT; zero defaults to one tower
	// per host (§5.1 pins each tower module to a single host).
	Towers int
	// CompressionRatio divides DMT's cross-host embedding volume (Table 5's
	// CR). SPTT and Baseline use 1.
	CompressionRatio float64
	// EmbBytesPerElem: 4 = fp32, 2 = quantized embedding comm (the Strong
	// Baseline enables quantized communication, §5.1).
	EmbBytesPerElem float64
	// GradBytesPerElem for the backward embedding AlltoAll (quantized
	// gradient comm in the Strong Baseline).
	GradBytesPerElem float64
}

// overlapFraction is the share of compute usable to hide communication
// (§5.1's pipelined/overlapped execution).
const overlapFraction = 0.18

// CompressedBytes returns the wire footprint of elems fp32 elements sent
// under a quantized-communication scheme — the byte knob the planners feed
// the netsim cost curves when costing compressed cross-host links.
func CompressedBytes(s quant.Scheme, elems int) int {
	return int(math.Ceil(float64(elems) * s.BytesPerElem()))
}

// DefaultConfig returns the Strong Baseline deployment for a model on a
// cluster: quantized comms, overlap enabled, batch 16K per GPU (§5.3.1).
func DefaultConfig(spec ModelSpec, cluster topology.Cluster, system System) Config {
	cfg := Config{
		Model:            spec,
		Cluster:          cluster,
		LocalBatch:       16 * 1024,
		System:           system,
		Towers:           cluster.Hosts,
		CompressionRatio: 1,
		EmbBytesPerElem:  4,
		GradBytesPerElem: 2,
	}
	if system == DMT {
		cfg.CompressionRatio = spec.DefaultCR
	}
	return cfg
}

// Breakdown is a costed iteration, in seconds — the quantities behind
// Figures 1 and 13.
type Breakdown struct {
	Compute      float64
	ExposedEmb   float64
	ExposedDense float64
	Others       float64
}

// Total returns the iteration latency.
func (b Breakdown) Total() float64 {
	return b.Compute + b.ExposedEmb + b.ExposedDense + b.Others
}

// Percentages returns each component as a share of the total, in the order
// (compute, embedding comm, dense sync, others) — Figure 1's bars.
func (b Breakdown) Percentages() (compute, emb, dense, others float64) {
	t := b.Total()
	if t == 0 {
		return 0, 0, 0, 0
	}
	return b.Compute / t * 100, b.ExposedEmb / t * 100, b.ExposedDense / t * 100, b.Others / t * 100
}

// stragglerPenalty inflates collective time in the TRAINING context
// relative to netsim's clean-benchmark curves. Production AlltoAlls carry
// imbalanced, fragmented payloads, run three times per iteration, and
// contend with the gradient AllReduce; their tail latency grows with rank
// count well beyond what an isolated nccl-tests run (Figure 5) shows. The
// coefficient is calibrated so the modeled SPTT-only and TM-only gains
// compose to Figure 10's end-to-end speedups (`dmt-bench -exp fig10` and
// `-exp fig11` print them next to the paper's bars).
func stragglerPenalty(world int) float64 {
	if world <= 8 {
		return 1
	}
	return 1 + float64(0.07*math.Log2(float64(world)/8))
}

// DMTFlopsPerSample returns the DMT variant's MFlops/sample for a tower
// count (nearest measured key). Exported so the serving cost model charges
// the same Table 4 compute the training model does.
func (m ModelSpec) DMTFlopsPerSample(towersCount int) float64 {
	return m.dmtFlops(towersCount)
}

// dmtFlops picks the DMT variant's compute for a tower count.
func (m ModelSpec) dmtFlops(towersCount int) float64 {
	if v, ok := m.DMTMFlops[towersCount]; ok {
		return v
	}
	best, bestDist := m.MFlopsPerSample, math.MaxInt32
	for k, v := range m.DMTMFlops {
		d := k - towersCount
		if d < 0 {
			d = -d
		}
		if d < int(bestDist) {
			best, bestDist = v, d
		}
	}
	return best
}

// PhaseKind classifies a phase for breakdown accounting.
type PhaseKind int

// Phase kinds.
const (
	KindCompute PhaseKind = iota
	KindEmbComm
	KindShuffle
	KindDenseComm
)

// Phase is one named stage of an iteration with its raw (pre-overlap)
// duration — the input to both the Breakdown and the trace package's
// timeline rendering.
type Phase struct {
	Name    string
	Kind    PhaseKind
	Seconds float64
}

// Phases decomposes one training iteration into named stages.
func Phases(cfg Config) []Phase {
	g := cfg.Cluster.GPUs()
	l := cfg.Cluster.GPUsPerHost
	gen := cfg.Cluster.Gen
	fabric := netsim.New(gen)
	if cfg.Towers == 0 {
		cfg.Towers = cfg.Cluster.Hosts
	}
	if cfg.CompressionRatio == 0 {
		cfg.CompressionRatio = 1
	}

	mflops := cfg.Model.MFlopsPerSample
	if cfg.System == DMT {
		mflops = cfg.Model.dmtFlops(cfg.Towers)
	}
	// Forward + backward ≈ 3× forward flops; folded into the calibrated
	// effective throughput, so compute = fwd flops / effective rate.
	compute := mflops * 1e6 * float64(cfg.LocalBatch) / (EffectiveTFlops(gen) * 1e12)

	embBytes := int(float64(cfg.Model.EmbElemsPerSample*cfg.LocalBatch) * cfg.EmbBytesPerElem)
	gradBytes := int(float64(cfg.Model.EmbElemsPerSample*cfg.LocalBatch) * cfg.GradBytesPerElem)
	idxBytes := cfg.Model.IndexElemsPerSample * cfg.LocalBatch * 4

	var phases []Phase
	add := func(name string, kind PhaseKind, sec float64) {
		phases = append(phases, Phase{Name: name, Kind: kind, Seconds: sec})
	}
	add("compute (fwd+bwd)", KindCompute, compute)

	switch cfg.System {
	case Baseline:
		p := stragglerPenalty(g)
		add("a2a indices (global)", KindEmbComm, p*fabric.Time(netsim.AlltoAll, g, l, idxBytes))
		add("a2a embeddings (global)", KindEmbComm, p*fabric.Time(netsim.AlltoAll, g, l, embBytes))
		add("a2a emb grads (global)", KindEmbComm, p*fabric.Time(netsim.AlltoAll, g, l, gradBytes))
	case SPTT, DMT:
		t := cfg.Towers
		hostsPerTower := cfg.Cluster.Hosts / t
		peerWorld := t
		if hostsPerTower < 1 {
			hostsPerTower = 1
		}
		// K-host towers (§3.1.3): a tower spanning K hosts shrinks the peer
		// world further but the "intra-tower" collective now crosses hosts.
		intraWorld := l * hostsPerTower
		cr := cfg.CompressionRatio
		fwdPeer := int(float64(embBytes) / cr)
		bwdPeer := int(float64(gradBytes) / cr)
		pGlobal := stragglerPenalty(g)
		pIntra := stragglerPenalty(intraWorld)
		pPeer := stragglerPenalty(peerWorld)
		add("a2a indices (global)", KindEmbComm, pGlobal*fabric.Time(netsim.AlltoAll, g, l, idxBytes))
		add("a2a intra-host fwd (NVLink)", KindEmbComm, pIntra*fabric.Time(netsim.AlltoAll, intraWorld, l, embBytes))
		add("shuffle c+e fwd (HBM)", KindShuffle, 2*float64(embBytes)/(gen.HBMGBps*1e9))
		add("a2a peer fwd (world T)", KindEmbComm, pPeer*fabric.Time(netsim.AlltoAll, peerWorld, 1, fwdPeer))
		add("a2a peer bwd (world T)", KindEmbComm, pPeer*fabric.Time(netsim.AlltoAll, peerWorld, 1, bwdPeer))
		add("shuffle c+e bwd (HBM)", KindShuffle, 2*float64(gradBytes)/(gen.HBMGBps*1e9))
		add("a2a intra-host bwd (NVLink)", KindEmbComm, pIntra*fabric.Time(netsim.AlltoAll, intraWorld, l, gradBytes))
	}

	// Dense synchronization. DMT's tower modules sync intra-host; their
	// parameters are a small fraction of the dense bytes and ride NVLink,
	// so the dominant term remains the global AllReduce of the over-arch.
	denseBytes := int(cfg.Model.DenseBytes)
	if cfg.System == DMT {
		tmBytes := denseBytes / 20
		add("allreduce over-arch (global)", KindDenseComm,
			stragglerPenalty(g)*fabric.Time(netsim.AllReduce, g, l, denseBytes-tmBytes))
		add("allreduce tower modules (NVLink)", KindDenseComm,
			fabric.Time(netsim.AllReduce, l, l, tmBytes))
	} else {
		add("allreduce dense grads (global)", KindDenseComm,
			stragglerPenalty(g)*fabric.Time(netsim.AllReduce, g, l, denseBytes))
	}
	return phases
}

// Iterate costs one training iteration.
func Iterate(cfg Config) Breakdown {
	phases := Phases(cfg)
	var compute, embComm, shuffle, denseComm float64
	for _, ph := range phases {
		switch ph.Kind {
		case KindCompute:
			compute += ph.Seconds
		case KindEmbComm:
			embComm += ph.Seconds
		case KindShuffle:
			shuffle += ph.Seconds
		case KindDenseComm:
			denseComm += ph.Seconds
		}
	}

	// Overlap: compute hides part of the communication; dense sync overlaps
	// first (it naturally pipelines with backward), then embedding comm.
	budget := float64(overlapFraction * compute)
	exposedDense := denseComm - budget
	if exposedDense < 0 {
		budget = -exposedDense
		exposedDense = 0
	} else {
		budget = 0
	}
	exposedEmb := embComm + shuffle - budget
	if exposedEmb < 0 {
		exposedEmb = 0
	}

	// Others: input pipeline and launch overheads.
	others := float64(0.02*compute) + 0.8e-3

	return Breakdown{
		Compute:      compute,
		ExposedEmb:   exposedEmb,
		ExposedDense: exposedDense,
		Others:       others,
	}
}

// Speedup returns iteration-time(base) / iteration-time(opt).
func Speedup(base, opt Config) float64 {
	return Iterate(base).Total() / Iterate(opt).Total()
}
