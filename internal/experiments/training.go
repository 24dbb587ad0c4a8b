package experiments

import (
	"fmt"
	"time"

	"dmt/internal/data"
	"dmt/internal/distributed"
	"dmt/internal/embeddings"
	"dmt/internal/models"
	"dmt/internal/netsim"
	"dmt/internal/quant"
)

// The measured training grids share one profile type, one trainer builder
// and one run loop. The train experiment is the wire-scheme sweep: the
// rank-parallel engine under fp32, fp16, int8 and int4 wires, its final
// loss and the gradient/embedding wire volumes split intra-host vs
// cross-host. No Fabric is set, so every column is a function of the
// trajectory and the byte stream, deterministic on any core count
// (testdata/train.golden). The engines' wall-clock step rates are the root
// BenchmarkDistributedStep's, and benchmark/'s train_dense and train_embed
// workloads'.

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
	// Pipeline runs the cross-step pipelined schedule
	// (distributed.Config.Pipeline), which hides the SPTT peer AlltoAlls
	// behind the bottom-MLP halves and the bucketed gradient reduce behind
	// the rest of the backward, with step N's buckets completing under step
	// N+1's SPTT forward. Without it the engine runs the blocking schedule.
	Pipeline bool
	// Fabric, when non-nil, prices the engines' messages with this fabric's
	// modeled transfer times, so exposed/hidden communication are nonzero
	// virtual-clock quantities (the Figure 13 measurement).
	Fabric *netsim.Fabric
	// EmbServers disaggregates the embedding tables onto this many dedicated
	// server ranks (distributed.EmbeddingTier); 0 keeps them in-process.
	EmbServers int
	// EmbCacheRows sizes each compute rank's write-back hot-ID cache when
	// the tier is remote; 0 disables caching.
	EmbCacheRows int
}

// DefaultTraining is the train experiment's and the root
// BenchmarkDistributedStep's profile: 8 ranks across 4 hosts of 2, with a
// dense part heavy enough that rank parallelism shows.
func DefaultTraining() TrainingProfile {
	return TrainingProfile{
		G: 8, L: 2, LocalBatch: 64, Steps: 8,
		Features: 16, N: 16, D: 16, TopMLP: []int{128, 64},
	}
}

// NewTrainer builds a distributed trainer for a profile: the rank-parallel
// engine, or with sequential the single-goroutine reference step. The
// measured grids and the root BenchmarkDistributedStep share it.
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
		Pipeline:   b2i(p.Pipeline && !sequential),
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

// variant is one named point of a training grid: the mutation it applies to
// the grid's base profile. Every variant runs the rank-parallel engine.
type variant struct {
	name string
	set  func(*TrainingProfile)
}

// TrainingRun is the one row type every measured training table reads: the
// variant's name and what runTraining observed for it. Tables derive their
// columns from Stats; nothing is copied out into per-table row structs.
type TrainingRun struct {
	Name      string
	FinalLoss float64
	Stats     distributed.Stats
}

// perStep is a cumulative duration's per-step mean in whole nanoseconds.
func (r TrainingRun) perStep(d time.Duration) time.Duration {
	if r.Stats.Steps == 0 {
		return 0
	}
	return d / time.Duration(r.Stats.Steps)
}

// HitRate is the hot-ID cache hit rate over the run.
func (r TrainingRun) HitRate() float64 {
	t := r.Stats.Tier
	return embeddings.CacheStats{Hits: t.CacheHits, Misses: t.CacheMisses}.HitRate()
}

// Sweep is one grid's result: the base profile and one run per variant, in
// the grid's declared order.
type Sweep struct {
	Profile TrainingProfile
	Runs    []TrainingRun
}

// Run returns the named variant's run, or the zero TrainingRun (Name "")
// when the sweep has none.
func (s Sweep) Run(name string) TrainingRun {
	for _, r := range s.Runs {
		if r.Name == name {
			return r
		}
	}
	return TrainingRun{}
}

// runTraining is the one build-trainer / run-p.Steps / read-Stats loop every
// measured training experiment shares. The trainer is drained before its
// Stats are read — the pipelined schedule carries the last step's bucket
// tail across the boundary, so its exposed comm must pay for the deferred
// work (a no-op for the other schedules).
func runTraining(name string, p TrainingProfile) (TrainingRun, error) {
	tr, gen, err := NewTrainer(p, false)
	if err != nil {
		return TrainingRun{}, fmt.Errorf("experiments: training setup for %s: %w", name, err)
	}
	run := TrainingRun{Name: name}
	for step := 0; step < p.Steps; step++ {
		run.FinalLoss = tr.Step(TrainingBatches(gen, p, step)).MeanLoss
	}
	tr.Drain()
	run.Stats = tr.Stats()
	return run, nil
}

// sweep is the one training sweep: every variant applied to a copy of the
// base profile and run over the same step sequence, in order.
func sweep(base TrainingProfile, variants []variant) (Sweep, error) {
	s := Sweep{Profile: base}
	for _, v := range variants {
		p := base
		if v.set != nil {
			v.set(&p)
		}
		run, err := runTraining(v.name, p)
		if err != nil {
			return s, err
		}
		s.Runs = append(s.Runs, run)
	}
	return s, nil
}

// The schedules a grid can put a profile under. Blocking clears the flag
// explicitly so a grid row never inherits the base profile's schedule.
func blocking(p *TrainingProfile)  { p.Pipeline = false }
func pipelined(p *TrainingProfile) { p.Pipeline = true }

// WireSchemes runs the rank-parallel engine, blocking, over the same step
// sequence once per wire scheme — fp32 first, the baseline, then fp16, int8
// and int4 — for the gradient reduce (with error feedback) and the
// cross-host embedding hops. p's own Compress and schedule are overridden.
func WireSchemes(p TrainingProfile) (Sweep, error) {
	var variants []variant
	for _, scheme := range []quant.Scheme{quant.None, quant.FP16, quant.INT8, quant.INT4} {
		variants = append(variants, variant{name: scheme.String(), set: func(p *TrainingProfile) {
			blocking(p)
			p.Compress = scheme
		}})
	}
	return sweep(p, variants)
}

func mb(b int64) float64 { return float64(b) / (1 << 20) }

// us is a duration in (fractional) microseconds.
func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }

// shape is the "G=…, L=…, B=…, n steps" clause the training titles share.
func (p TrainingProfile) shape() string {
	return fmt.Sprintf("G=%d, L=%d, B=%d, %d steps", p.G, p.L, p.LocalBatch, p.Steps)
}

// renderWireSchemes renders the wire-scheme table: each scheme's final
// loss, its drift from the fp32 row after error feedback, and the
// cross-host bytes the compressed collectives actually charged, with their
// savings over fp32.
func renderWireSchemes(s Sweep) string {
	base := s.Runs[0]
	mbOf := func(n func(distributed.Stats) int64) func(TrainingRun) any {
		return func(r TrainingRun) any { return mb(n(r.Stats)) }
	}
	save := func(n func(distributed.Stats) int64) func(TrainingRun) any {
		return func(r TrainingRun) any {
			b, was := float64(n(r.Stats)), float64(n(base.Stats))
			if was == 0 {
				return "-"
			}
			return fmt.Sprintf("%+.1f%%", (b-was)/was*100)
		}
	}
	gradCross := func(st distributed.Stats) int64 { return st.GradCrossHostBytes }
	embCross := func(st distributed.Stats) int64 { return st.EmbCrossHostBytes }
	schemes := table[TrainingRun]{
		title: "Compressed communication: wire scheme sweep, rank-parallel engine (" + s.Profile.shape() + ")",
		cols: []column[TrainingRun]{
			{"Scheme", "%-8s", func(r TrainingRun) any { return r.Name }},
			{"loss", "%9.4f", func(r TrainingRun) any { return r.FinalLoss }},
			{"Δloss", "%+10.6f", func(r TrainingRun) any { return r.FinalLoss - base.FinalLoss }},
			{"gradCross", "| %8.2fMB", mbOf(gradCross)},
			{"vs fp32", "%9s", save(gradCross)},
			{"embCross", "%8.2fMB", mbOf(embCross)},
			{"vs fp32", "%9s", save(embCross)},
			{"gradIntra", "| %8.2fMB", mbOf(func(st distributed.Stats) int64 { return st.GradIntraHostBytes })},
			{"embIntra", "%8.2fMB", mbOf(func(st distributed.Stats) int64 { return st.EmbIntraHostBytes })},
		},
		foot: []string{
			"embedding intra-host hops stay fp32 (topology-aware policy); the gradient reduce to",
			"the row owners compresses every hop with per-rank error feedback, the weight gather stays fp32",
		},
	}
	return schemes.render(s.Runs)
}
