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

// The training-throughput experiment: the repo's counterpart to the paper's
// training-side evaluation, measuring what the rank-parallel engine buys
// over the single-goroutine reference step on real hardware. Both engines
// follow bitwise-identical trajectories (the distributed package's
// equivalence theorem), so the comparison is pure execution speed: steps/s,
// the final loss, and the gradient/embedding wire volumes split intra-host
// vs cross-host. No Fabric is set, so the trainer's modeled phase times are
// zero and the table has no phase columns.

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
	// reduce behind the dense and embedding backward.
	Overlap bool
	// Pipeline adds the cross-step pipelined engine
	// (distributed.Config.Pipeline): the overlapped schedule extended
	// across step boundaries, with step N's gradient buckets completing
	// under step N+1's SPTT forward.
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

// DefaultTraining is the cmd/dmt-bench configuration: 8 ranks across 4
// hosts of 2, with a dense part heavy enough that rank parallelism shows.
func DefaultTraining() TrainingProfile {
	return TrainingProfile{
		G: 8, L: 2, LocalBatch: 64, Steps: 8,
		Features: 16, N: 16, D: 16, TopMLP: []int{128, 64},
	}
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

// variant is one named point of a training grid: the mutation it applies to
// the grid's base profile, and whether it runs the single-goroutine
// reference engine instead of the rank-parallel one.
type variant struct {
	name       string
	sequential bool
	set        func(*TrainingProfile)
}

// TrainingRun is the one row type every measured training table reads: the
// variant's name and what runTraining observed for it. Tables derive their
// columns from Stats; nothing is copied out into per-table row structs.
type TrainingRun struct {
	Name      string
	FinalLoss float64
	Elapsed   time.Duration
	Stats     distributed.Stats
}

// StepsPerSec is the run's wall-clock throughput, drain included.
func (r TrainingRun) StepsPerSec() float64 {
	return float64(r.Stats.Steps) / r.Elapsed.Seconds()
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
// measured training experiment shares. The trainer is drained inside the
// timed region — the pipelined schedule carries the last step's bucket tail
// across the boundary, so its steps/s and exposed comm must pay for the
// deferred work (a no-op for the other schedules).
func runTraining(name string, p TrainingProfile, sequential bool) (TrainingRun, error) {
	tr, gen, err := NewTrainer(p, sequential)
	if err != nil {
		return TrainingRun{}, fmt.Errorf("experiments: training setup for %s: %w", name, err)
	}
	run := TrainingRun{Name: name}
	start := time.Now()
	for step := 0; step < p.Steps; step++ {
		run.FinalLoss = tr.Step(TrainingBatches(gen, p, step)).MeanLoss
	}
	tr.Drain()
	run.Stats, run.Elapsed = tr.Stats(), time.Since(start)
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
		run, err := runTraining(v.name, p, v.sequential)
		if err != nil {
			return s, err
		}
		s.Runs = append(s.Runs, run)
	}
	return s, nil
}

// The schedules a grid can put a profile under. Blocking clears both flags
// explicitly so a grid row never inherits the base profile's schedule.
func blocking(p *TrainingProfile)   { p.Overlap, p.Pipeline = false, false }
func overlapped(p *TrainingProfile) { p.Overlap, p.Pipeline = true, false }
func pipelined(p *TrainingProfile)  { p.Overlap, p.Pipeline = false, true }

// TrainingThroughput runs the engines over the same step sequence:
// sequential and rank-parallel always, plus the overlapped and cross-step
// pipelined schedules when the profile asks for them. All rows follow
// bitwise-identical trajectories, so the comparison is pure execution
// speed; how much communication each schedule hides is the fabric tables'
// (fig13, pipeline) subject. A compressed profile adds one "fp32"
// run of the rank-parallel engine, the baseline of the wire-scheme table;
// that table's other row is the rank-parallel run itself, measured once.
func TrainingThroughput(p TrainingProfile) (Sweep, error) {
	variants := []variant{
		{name: "sequential", sequential: true, set: blocking},
		{name: "rank-parallel", set: blocking},
	}
	if p.Overlap {
		variants = append(variants, variant{name: "overlapped", set: overlapped})
	}
	if p.Pipeline {
		variants = append(variants, variant{name: "pipelined", set: pipelined})
	}
	if p.Compress != quant.None {
		variants = append(variants, variant{name: "fp32", set: func(p *TrainingProfile) {
			blocking(p)
			p.Compress = quant.None
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

// Columns the engine table and the wire-scheme table share.
var (
	colStepsPerSec = column[TrainingRun]{"steps/s", "%9.1f", func(r TrainingRun) any { return r.StepsPerSec() }}
	colLoss        = column[TrainingRun]{"loss", "%9.4f", func(r TrainingRun) any { return r.FinalLoss }}
	gradIntraMB    = func(r TrainingRun) any { return mb(r.Stats.GradIntraHostBytes) }
	gradCrossMB    = func(r TrainingRun) any { return mb(r.Stats.GradCrossHostBytes) }
	embCrossMB     = func(r TrainingRun) any { return mb(r.Stats.EmbCrossHostBytes) }
)

// renderTraining renders the engine comparison and, for a compressed
// profile, the wire-scheme table under it.
func renderTraining(s Sweep) string {
	p := s.Profile
	engines := table[TrainingRun]{
		title: "Distributed training: sequential vs rank-parallel step (" + p.shape() + ")",
		cols: []column[TrainingRun]{
			{"Engine", "%-14s", func(r TrainingRun) any { return r.Name }},
			colStepsPerSec,
			colLoss,
			{"gradIntra", "| %8.2fMB", gradIntraMB},
			{"gradCross", "%8.2fMB", gradCrossMB},
			{"embIntra", "%8.2fMB", func(r TrainingRun) any { return mb(r.Stats.EmbIntraHostBytes) }},
			{"embCross", "%8.2fMB", embCrossMB},
		},
	}
	par := s.Run("rank-parallel")
	engines.foot = []string{fmt.Sprintf(
		"rank-parallel speedup: %.2fx (byte volumes cumulative)",
		par.StepsPerSec()/s.Run("sequential").StepsPerSec())}
	if p.Overlap {
		engines.foot = append(engines.foot, fmt.Sprintf("overlapped vs rank-parallel: %.2fx",
			s.Run("overlapped").StepsPerSec()/par.StepsPerSec()))
	}
	if p.Pipeline {
		engines.foot = append(engines.foot,
			fmt.Sprintf("pipelined vs rank-parallel: %.2fx — gradient buckets complete across the step",
				s.Run("pipelined").StepsPerSec()/par.StepsPerSec()),
			"boundary, behind the next step's SPTT forward (drained tail included in the timing)")
	}
	if p.Compress == quant.None {
		return engines.render(s.Runs)
	}
	engines.title += fmt.Sprintf("\nwire compression: %s (gradient reduce with error feedback; cross-host embedding hops)", p.Compress)

	// The wire-scheme table: the trailing fp32 baseline run against the
	// rank-parallel run (shown under its scheme's name), with the byte
	// savings the compressed collectives actually delivered and the loss
	// drift left after error feedback.
	base := s.Run("fp32")
	par.Name = p.Compress.String()
	save := func(n func(distributed.Stats) int64) func(TrainingRun) any {
		return func(r TrainingRun) any {
			b, was := float64(n(r.Stats)), float64(n(base.Stats))
			if was == 0 {
				return "-"
			}
			return fmt.Sprintf("%+.1f%%", (b-was)/was*100)
		}
	}
	schemes := table[TrainingRun]{
		title: "Compressed communication: wire scheme sweep, rank-parallel engine (" + p.shape() + ")",
		cols: []column[TrainingRun]{
			{"Scheme", "%-8s", func(r TrainingRun) any { return r.Name }},
			colStepsPerSec,
			colLoss,
			{"Δloss", "%+10.6f", func(r TrainingRun) any { return r.FinalLoss - base.FinalLoss }},
			{"gradCross", "| %8.2fMB", gradCrossMB},
			{"vs fp32", "%9s", save(func(st distributed.Stats) int64 { return st.GradCrossHostBytes })},
			{"embCross", "%8.2fMB", embCrossMB},
			{"vs fp32", "%9s", save(func(st distributed.Stats) int64 { return st.EmbCrossHostBytes })},
			{"gradIntra", "| %8.2fMB", gradIntraMB},
		},
		foot: []string{
			"embedding intra-host hops stay fp32 (topology-aware policy); the gradient reduce to",
			"the row owners compresses every hop with per-rank error feedback, the weight gather stays fp32",
		},
	}
	return engines.render(s.Runs[:len(s.Runs)-1]) + schemes.render([]TrainingRun{base, par})
}
