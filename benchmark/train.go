package main

import (
	"fmt"
	"math"
	"runtime"
	"time"

	"dmt/internal/data"
	"dmt/internal/distributed"
	"dmt/internal/models"
	"dmt/internal/netsim"
	"dmt/internal/quant"
	"dmt/internal/topology"
)

// trainShape is one training workload's cluster, model and schedule. Both
// workloads share the cluster (8 ranks, 2 per host, local batch 64, A100
// fabric on the virtual clock) and differ in which side carries the work.
type trainShape struct {
	features, hot, card int
	n, d                int
	topMLP              []int
	overlap             bool
	pipeline            int
	wire                quant.Scheme
	servers, cacheRows  int
}

const (
	trainG     = 8
	trainL     = 2
	trainBatch = 64
)

// train_dense: wide over-arch, single-hot features over 128-row tables,
// fp16 wire, cross-step pipelining, in-process tables.
var trainDenseShape = trainShape{
	features: 16, hot: 1, card: 128, n: 16, d: 16,
	topMLP: []int{256, 128}, pipeline: 1, wire: quant.FP16,
}

// train_embed: 32 four-hot features over 4096-row tables held by two
// embedding servers behind an 8192-row write-back cache per rank; one small
// top layer, fp32 wire, overlapped schedule. Cardinality and cache size put
// the cache hit share between 0.3 and 0.7, so lookups exercise hits,
// misses and write-backs alike.
var trainEmbedShape = trainShape{
	features: 32, hot: 4, card: 4096, n: 16, d: 8,
	topMLP: []int{32}, overlap: true, wire: quant.None,
	servers: 2, cacheRows: 8192,
}

// Model-init seeds are constants: -seed drives generated inputs only.
const (
	modelSeed   = 99
	trainerSeed = 7
)

func (sh trainShape) dataConfig(seed uint64) data.Config {
	dcfg := data.CriteoLike(seed)
	dcfg.Cardinalities = make([]int, sh.features)
	dcfg.HotSizes = make([]int, sh.features)
	for i := range dcfg.Cardinalities {
		dcfg.Cardinalities[i] = sh.card
		dcfg.HotSizes[i] = sh.hot
	}
	dcfg.NumGroups = trainG / trainL
	return dcfg
}

func (sh trainShape) trainerConfig(schema data.Schema, sequential bool) distributed.Config {
	cfg := distributed.Config{
		G: trainG, L: trainL, LocalBatch: trainBatch,
		Model: models.DMTDLRMConfig{
			Schema: schema, N: sh.n,
			Towers: models.RoundRobinTowers(trainG/trainL, sh.features),
			C:      1, P: 0, D: sh.d,
			BottomMLP: []int{32, sh.d},
			TopMLP:    append([]int(nil), sh.topMLP...),
			Seed:      modelSeed,
		},
		DenseLR: 1e-3, SparseLR: 1e-2, Seed: trainerSeed,
		Sequential:  sequential,
		Compression: distributed.Compression{Gradient: sh.wire, Embedding: sh.wire},
		Fabric:      netsim.New(topology.A100),
		EmbeddingTier: distributed.EmbeddingTier{
			Servers: sh.servers, CacheRows: sh.cacheRows,
		},
	}
	if !sequential {
		cfg.Overlap = sh.overlap
		cfg.Pipeline = sh.pipeline
	}
	return cfg
}

// stepBatches materialises step's per-rank local batches: sample indices
// advance with the step, so every step sees fresh samples.
func stepBatches(gen *data.Generator, step int) []*data.Batch {
	batches := make([]*data.Batch, trainG)
	for r := range batches {
		batches[r] = gen.Batch((step*trainG+r)*trainBatch, trainBatch)
	}
	return batches
}

// safeStep runs one step and turns a panic (a failed operation) into an
// error instead of taking the harness down.
func safeStep(tr *distributed.Trainer, batches []*data.Batch) (res distributed.StepResult, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("step panicked: %v", r)
		}
	}()
	return tr.Step(batches), nil
}

// trainRig is one set-up round's product: a warmed trainer and its data.
type trainRig struct {
	gen        *data.Generator
	tr         *distributed.Trainer
	warmLosses []float64 // MeanLoss of the warm-up steps (the first few feed the sequential check)
}

func (sh trainShape) setUp(seed uint64, warmup int) (*trainRig, error) {
	dcfg := sh.dataConfig(seed)
	gen := data.NewGenerator(dcfg)
	tr, err := distributed.New(sh.trainerConfig(dcfg.Schema, false))
	if err != nil {
		return nil, fmt.Errorf("trainer: %w", err)
	}
	if sh.pipeline > 0 && !tr.PipelineActive() {
		tr.Close()
		return nil, fmt.Errorf("trainer: pipelining fell back: %s", tr.PipelineFallback())
	}
	rig := &trainRig{gen: gen, tr: tr}
	for s := 0; s < warmup; s++ {
		res, err := safeStep(tr, stepBatches(gen, s))
		if err != nil {
			tr.Close()
			return nil, fmt.Errorf("warm-up step %d: %w", s, err)
		}
		rig.warmLosses = append(rig.warmLosses, res.MeanLoss)
	}
	return rig, nil
}

func runTrainDense(rc runConfig) (*report, error) {
	return runTrain(rc, trainDenseShape, rc.sizes.trainDense)
}

func runTrainEmbed(rc runConfig) (*report, error) {
	return runTrain(rc, trainEmbedShape, rc.sizes.trainEmbed)
}

func runTrain(rc runConfig, sh trainShape, sz trainSizes) (*report, error) {
	rep := newReport()

	// Set-up, rc.rounds times over; the last round's rig is the one
	// measured. Round 1 counts from process start.
	var rig *trainRig
	setupS, err := rc.setUp(
		func() (err error) { rig, err = sh.setUp(rc.seed, sz.warmup); return err },
		func() { rig.tr.Close(); rig = nil })
	if err != nil {
		return nil, err
	}
	defer func() {
		if rig != nil {
			rig.tr.Close()
		}
	}()
	rep.set("setup_s", setupS)
	tr, gen := rig.tr, rig.gen

	// Measured phase: a fixed number of steps in equal segments. Batches
	// are generated between steps, outside the timed spans.
	steps := scaled(sz.steps, rc.scale, segments)
	perSeg := steps / segments
	var (
		stepMS   = make([]float64, 0, steps)
		losses   = make([]float64, 0, steps)
		refRates []float64
		cpu      float64
	)
	st0, now0 := tr.Stats(), tr.Network().Now()
	for s := 0; s < steps; s++ {
		batches := stepBatches(gen, sz.warmup+s)
		c0, t0 := cpuSeconds(), time.Now()
		res, err := safeStep(tr, batches)
		if s == steps-1 {
			tr.Drain() // the pipelined tail belongs to the steps that launched it
		}
		el := time.Since(t0)
		cpu += cpuSeconds() - c0
		rep.op(1)
		if err != nil {
			rep.fail("step %d: %v", s, err)
			return rep, nil // a panicked trainer cannot be stepped further
		}
		if math.IsNaN(res.MeanLoss) || math.IsInf(res.MeanLoss, 0) {
			rep.fail("step %d: loss %v", s, res.MeanLoss)
		}
		stepMS = append(stepMS, el.Seconds()*1e3)
		losses = append(losses, res.MeanLoss)
		if (s+1)%perSeg == 0 {
			refRates = append(refRates, refKernel())
		}
	}
	st1, now1 := tr.Stats(), tr.Network().Now()

	// One step is one unit of trainG*trainBatch samples, timed in ms.
	const samplesPerStepMS = trainG * trainBatch * 1e3
	rep.set("throughput_per_s", fastDecileRate(stepMS, samplesPerStepMS))
	rep.set("bench.throughput_mean_per_s", samplesPerStepMS/mean(stepMS))
	// Latency segments of at least five steps, twenty segments at most.
	rep.set("latency_p50_ms", quietSegments(stepMS, max(1, min(latencySegments, steps/5)), 0.50))
	rep.set("bench.latency_p99_ms", medianOfSegments(stepMS, segments, 0.99))
	rep.set("bench.cpu_ms_per_op", cpu*1e3/float64(steps))
	rep.set("bench.ref_rate", median(refRates))

	tail := min(sz.lossTail, len(losses))
	rep.set("distributed.loss_final", mean(losses[len(losses)-tail:]))
	rep.set("distributed.modeled_step_us", us(now1-now0)/float64(steps))
	trainCounters(rep, st0, st1, steps)

	// Output checks. The traced window still needs the measured trainer;
	// an untraced run lets go of it first, so that peak_rss_mb is one
	// trainer's footprint and not one trainer plus the reference's.
	rep.op(1)
	if err := tr.ReplicasInSync(); err != nil {
		rep.fail("replicas out of sync after %d steps: %v", sz.warmup+steps, err)
	}
	if rc.trace {
		if err := traceTrain(rc, rep, sh, sz, rig, steps); err != nil {
			return nil, err
		}
	}
	warmLosses := rig.warmLosses
	rig.tr.Close()
	rig, tr = nil, nil
	runtime.GC()
	checkSequential(rep, sh, rc.seed, warmLosses, sz.checkSteps)
	return rep, nil
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// trainCounters derives the exact per-step figures from the difference of
// two Trainer.Stats snapshots around the measured phase.
func trainCounters(rep *report, a, b distributed.Stats, steps int) {
	n := float64(steps)
	per := func(x, y time.Duration) float64 { return us(y-x) / n }
	perB := func(x, y int64) float64 { return float64(y-x) / n }

	cross := (b.GradCrossHostBytes - a.GradCrossHostBytes) + (b.EmbCrossHostBytes - a.EmbCrossHostBytes) +
		(b.Tier.LookupCrossBytes - a.Tier.LookupCrossBytes) + (b.Tier.UpdateCrossBytes - a.Tier.UpdateCrossBytes)
	rep.set("distributed.cross_host_bytes_per_sample", float64(cross)/(n*trainG*trainBatch))

	rep.set("comm.exposed_us_per_step", per(a.Phases.ExposedComm, b.Phases.ExposedComm))
	rep.set("comm.hidden_us_per_step", per(a.Phases.HiddenComm, b.Phases.HiddenComm))
	rep.set("comm.cross_step_hidden_us_per_step", per(a.Phases.CrossStepHidden, b.Phases.CrossStepHidden))
	rep.set("comm.grad_cross_bytes_per_step", perB(a.GradCrossHostBytes, b.GradCrossHostBytes))
	rep.set("comm.grad_intra_bytes_per_step", perB(a.GradIntraHostBytes, b.GradIntraHostBytes))

	rep.set("sptt.fwd_exposed_us_per_step", per(a.Sim.SPTTFwdExposed, b.Sim.SPTTFwdExposed))
	rep.set("sptt.bwd_exposed_us_per_step", per(a.Sim.SPTTBwdExposed, b.Sim.SPTTBwdExposed))
	rep.set("sptt.emb_cross_bytes_per_step", perB(a.EmbCrossHostBytes, b.EmbCrossHostBytes))
	rep.set("sptt.emb_intra_bytes_per_step", perB(a.EmbIntraHostBytes, b.EmbIntraHostBytes))

	hits := float64(b.Tier.CacheHits - a.Tier.CacheHits)
	misses := float64(b.Tier.CacheMisses - a.Tier.CacheMisses)
	if hits+misses > 0 {
		rep.set("embeddings.cache_hit_share", hits/(hits+misses))
	}
	rep.set("embeddings.lookup_wire_bytes_per_step", perB(a.Tier.LookupCrossBytes, b.Tier.LookupCrossBytes))
	rep.set("embeddings.update_wire_bytes_per_step", perB(a.Tier.UpdateCrossBytes, b.Tier.UpdateCrossBytes))
	rep.set("embeddings.lookup_exposed_us_per_step", per(a.Tier.LookupExposed, b.Tier.LookupExposed))
	rep.set("embeddings.update_exposed_us_per_step", per(a.Tier.UpdateExposed, b.Tier.UpdateExposed))

	rep.set("distributed.phase_emb_us", per(a.Phases.EmbComm, b.Phases.EmbComm))
	rep.set("distributed.phase_dense_us", per(a.Phases.Dense, b.Phases.Dense))
	rep.set("distributed.phase_grad_us", per(a.Phases.GradExchange, b.Phases.GradExchange))
	rep.set("distributed.phase_update_us", per(a.Phases.Update, b.Phases.Update))
}

// checkSequential holds the measured engine to the repo's reference: the
// first n steps' MeanLoss must equal the single-goroutine Config.Sequential
// engine's bit for bit, on the same inputs.
func checkSequential(rep *report, sh trainShape, seed uint64, got []float64, n int) {
	n = min(n, len(got))
	dcfg := sh.dataConfig(seed)
	gen := data.NewGenerator(dcfg)
	ref, err := distributed.New(sh.trainerConfig(dcfg.Schema, true))
	rep.op(n)
	if err != nil {
		rep.fail("sequential reference: %v", err)
		return
	}
	defer ref.Close()
	for s := 0; s < n; s++ {
		res, err := safeStep(ref, stepBatches(gen, s))
		if err != nil {
			rep.fail("sequential reference step %d: %v", s, err)
			return
		}
		if math.Float64bits(res.MeanLoss) != math.Float64bits(got[s]) {
			rep.fail("step %d: MeanLoss %v differs from the sequential engine's %v", s, got[s], res.MeanLoss)
		}
	}
}
