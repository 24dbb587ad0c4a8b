package experiments

import (
	"fmt"
	"time"

	"dmt/internal/data"
	"dmt/internal/distributed"
	"dmt/internal/models"
	"dmt/internal/netsim"
	"dmt/internal/quant"
)

// The training-throughput experiment: the repo's counterpart to the paper's
// training-side evaluation, measuring what the rank-parallel engine buys
// over the single-goroutine reference step on real hardware. Both engines
// follow bitwise-identical trajectories (the distributed package's
// equivalence theorem), so the comparison is pure execution speed: steps/s,
// the per-phase breakdown (embedding dataflow, dense compute, gradient
// exchange, optimizer update), and the gradient/embedding wire volumes
// split intra-host vs cross-host.

// TrainingProfile sizes the distributed-training measurement.
type TrainingProfile struct {
	G, L       int // ranks and ranks per host
	LocalBatch int
	Steps      int
	Features   int // sparse features, dealt round-robin into G/L towers
	N, D       int // embedding dim and tower output dim per derived feature
	TopMLP     []int
	// Compress selects the wire scheme for gradient (with error feedback)
	// and cross-host embedding traffic; None trains uncompressed.
	Compress quant.Scheme
	// Overlap adds a third measured engine: the overlapped rank-parallel
	// schedule (distributed.Config.Overlap), which hides the SPTT peer
	// AlltoAll behind the bottom-MLP forward and the bucketed gradient
	// AllReduce behind the dense and embedding backward.
	Overlap bool
	// Pipeline adds the cross-step pipelined engine
	// (distributed.Config.Pipeline): the overlapped schedule extended
	// across step boundaries, with step N's gradient buckets completing
	// under step N+1's SPTT forward.
	Pipeline bool
	// Fabric, when non-nil, runs the engines in simulated-latency mode: the
	// comm runtime delivers messages after this fabric's modeled transfer
	// times and the exposed/hidden columns become deterministic virtual-
	// clock quantities (the Figure 13 measurement).
	Fabric *netsim.Fabric
	// EmbServers disaggregates the embedding tables onto this many dedicated
	// server ranks (distributed.EmbeddingTier); 0 keeps them in-process.
	EmbServers int
	// EmbCacheRows sizes each compute rank's write-back hot-ID cache when
	// the tier is remote; 0 disables caching.
	EmbCacheRows int
}

// SmokeTraining keeps the test suite fast.
func SmokeTraining() TrainingProfile {
	return TrainingProfile{
		G: 4, L: 2, LocalBatch: 8, Steps: 2,
		Features: 8, N: 8, D: 4, TopMLP: []int{16},
	}
}

// DefaultTraining is the cmd/dmt-bench configuration: 8 ranks across 4
// hosts of 2, with a dense part heavy enough that rank parallelism shows.
func DefaultTraining() TrainingProfile {
	return TrainingProfile{
		G: 8, L: 2, LocalBatch: 64, Steps: 8,
		Features: 16, N: 16, D: 16, TopMLP: []int{128, 64},
	}
}

// TrainingRow is one engine's measurement.
type TrainingRow struct {
	Mode        string // "sequential", "rank-parallel", "overlapped", or "pipelined"
	StepsPerSec float64
	FinalLoss   float64
	Stats       distributed.Stats
}

// TrainingReport compares the engines.
type TrainingReport struct {
	Profile TrainingProfile
	Rows    []TrainingRow
	// Speedup is rank-parallel steps/s over sequential steps/s.
	Speedup float64
	// OverlapSpeedup is overlapped steps/s over blocking rank-parallel
	// steps/s; zero when the overlapped engine was not measured.
	OverlapSpeedup float64
	// PipelineSpeedup is cross-step pipelined steps/s over blocking
	// rank-parallel steps/s; zero when the pipelined engine was not
	// measured.
	PipelineSpeedup float64
}

// NewTrainer builds a distributed trainer for a profile — shared by the
// experiment below, cmd/dmt-bench, and the root BenchmarkDistributedStep.
func NewTrainer(p TrainingProfile, sequential bool) (*distributed.Trainer, *data.Generator, error) {
	dcfg := data.CriteoLike(1)
	dcfg.Cardinalities = make([]int, p.Features)
	dcfg.HotSizes = make([]int, p.Features)
	for i := range dcfg.Cardinalities {
		dcfg.Cardinalities[i] = 128
		dcfg.HotSizes[i] = 1
	}
	dcfg.NumGroups = p.G / p.L
	gen := data.NewGenerator(dcfg)

	cfg := distributed.Config{
		G: p.G, L: p.L, LocalBatch: p.LocalBatch,
		Model: models.DMTDLRMConfig{
			Schema: dcfg.Schema, N: p.N,
			Towers: models.RoundRobinTowers(p.G/p.L, p.Features),
			C:      1, P: 0, D: p.D,
			BottomMLP: []int{32, p.D},
			TopMLP:    append([]int(nil), p.TopMLP...),
			Seed:      99,
		},
		DenseLR: 1e-3, SparseLR: 1e-2, Seed: 7,
		Sequential: sequential,
		Overlap:    p.Overlap && !sequential,
		Pipeline:   b2i(p.Pipeline && !sequential && !p.Overlap),
		Compression: distributed.Compression{
			Gradient:  p.Compress,
			Embedding: p.Compress,
		},
		Fabric: p.Fabric,
		EmbeddingTier: distributed.EmbeddingTier{
			Servers:   p.EmbServers,
			CacheRows: p.EmbCacheRows,
		},
	}
	tr, err := distributed.New(cfg)
	return tr, gen, err
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// TrainingBatches materializes step-indexed per-rank local batches.
func TrainingBatches(gen *data.Generator, p TrainingProfile, step int) []*data.Batch {
	batches := make([]*data.Batch, p.G)
	for r := 0; r < p.G; r++ {
		batches[r] = gen.Batch(step*p.G*p.LocalBatch+r*p.LocalBatch, p.LocalBatch)
	}
	return batches
}

// runTraining is the one build-trainer / run-p.Steps / read-Stats loop every
// measured training experiment shares. The trainer is drained inside the
// timed region — the pipelined schedule carries the last step's bucket tail
// across the boundary, so its steps/s and exposed comm must pay for the
// deferred work (a no-op for the other schedules) — and always closed, so
// a remote embedding tier's server goroutines never outlive the row.
func runTraining(p TrainingProfile, sequential bool) (finalLoss float64, st distributed.Stats, elapsed time.Duration) {
	tr, gen, err := NewTrainer(p, sequential)
	if err != nil {
		panic(fmt.Sprintf("experiments: training setup: %v", err))
	}
	defer tr.Close()
	start := time.Now()
	for step := 0; step < p.Steps; step++ {
		finalLoss = tr.Step(TrainingBatches(gen, p, step)).MeanLoss
	}
	tr.Drain()
	return finalLoss, tr.Stats(), time.Since(start)
}

// TrainingThroughput runs the engines over the same step sequence:
// sequential and rank-parallel always, plus the overlapped and cross-step
// pipelined schedules when the profile asks for them. All rows follow
// bitwise-identical trajectories, so the comparison is pure execution
// speed — and, for the scheduled rows, how much communication moved from
// the exposed to the hidden column.
func TrainingThroughput(p TrainingProfile) TrainingReport {
	rep := TrainingReport{Profile: p}
	type engineMode struct {
		name       string
		sequential bool
		overlap    bool
		pipeline   bool
	}
	modes := []engineMode{
		{"sequential", true, false, false},
		{"rank-parallel", false, false, false},
	}
	if p.Overlap {
		modes = append(modes, engineMode{"overlapped", false, true, false})
	}
	if p.Pipeline {
		modes = append(modes, engineMode{"pipelined", false, false, true})
	}
	for _, mode := range modes {
		sp := p
		sp.Overlap = mode.overlap
		sp.Pipeline = mode.pipeline
		last, st, elapsed := runTraining(sp, mode.sequential)
		rep.Rows = append(rep.Rows, TrainingRow{
			Mode:        mode.name,
			StepsPerSec: float64(sp.Steps) / elapsed.Seconds(),
			FinalLoss:   last,
			Stats:       st,
		})
	}
	rep.Speedup = rep.Rows[1].StepsPerSec / rep.Rows[0].StepsPerSec
	for _, row := range rep.Rows {
		switch row.Mode {
		case "overlapped":
			rep.OverlapSpeedup = row.StepsPerSec / rep.Rows[1].StepsPerSec
		case "pipelined":
			rep.PipelineSpeedup = row.StepsPerSec / rep.Rows[1].StepsPerSec
		}
	}
	return rep
}

// CompressionRow is one wire scheme's measurement on the rank-parallel
// engine: throughput, final loss (and its drift against the fp32 row), and
// the cumulative gradient/embedding wire volumes split by fabric.
type CompressionRow struct {
	Scheme      quant.Scheme
	StepsPerSec float64
	FinalLoss   float64
	// DeltaLoss is FinalLoss minus the fp32 row's — the price of the wire
	// scheme after error feedback. Zero for the fp32 row by construction.
	DeltaLoss float64
	Stats     distributed.Stats
}

// CompressionReport is the per-scheme sweep behind
// `dmt-bench -exp train -compress <scheme>`.
type CompressionReport struct {
	Profile TrainingProfile
	Rows    []CompressionRow
}

// TrainingCompression trains the rank-parallel engine once per scheme over
// the same step sequence. A leading quant.None row is inserted if absent so
// every report carries its own fp32 baseline for the byte and loss deltas.
func TrainingCompression(p TrainingProfile, schemes []quant.Scheme) CompressionReport {
	if len(schemes) == 0 || schemes[0] != quant.None {
		schemes = append([]quant.Scheme{quant.None}, schemes...)
	}
	rep := CompressionReport{Profile: p}
	for _, s := range schemes {
		sp := p
		sp.Compress = s
		last, st, elapsed := runTraining(sp, false)
		rep.Rows = append(rep.Rows, CompressionRow{
			Scheme:      s,
			StepsPerSec: float64(sp.Steps) / elapsed.Seconds(),
			FinalLoss:   last,
			DeltaLoss:   last - rep.baselineLoss(last),
			Stats:       st,
		})
	}
	return rep
}

// baselineLoss returns the fp32 row's final loss, or fallback before that
// row exists (making the first row's delta zero).
func (r CompressionReport) baselineLoss(fallback float64) float64 {
	for _, row := range r.Rows {
		if row.Scheme == quant.None {
			return row.FinalLoss
		}
	}
	return fallback
}
