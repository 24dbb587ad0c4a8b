// Package distributed trains a DMT model with the paper's actual training
// paradigm, end to end: embedding tables are model-parallel behind the SPTT
// dataflow (§3.1), tower modules run as data-parallel replicas per host GPU
// with intra-host gradient reduction (§3.2), and the over-arch runs fully
// data-parallel with a global gradient average (§2.2).
//
// Only the dense modules are replicated. The trainer holds one set of
// embedding tables, as each table lives on one owner rank in the paper: the
// rank replicas, the SPTT engine and the tier (embeddings.Local without
// servers) share the tables, each with its own pooling scratch, so memory
// is one table set plus SparseAdam moments: what a memory node would hold.
//
// The training engine is rank-parallel: one executor (stepRanks, schedule.go)
// walks a fixed phase order — SPTT forward, dense forward/backward, SPTT
// backward, gradient exchange, update — running every phase as one goroutine
// per rank under comm.Run, exactly like the SPTT dataflow: over-arch
// gradients reduced to one owner rank per row by real bucketed collectives
// on the global group, stepped there and gathered back as weights
// (buckets.go), tower-module gradients reduced intra-host inside
// SPTTBackward, and sparse updates applied by each table's owner rank. What
// communication a step leaves exposed is decided by the schedule the
// executor reads — blocking, or cross-step pipelined (Config.Pipeline, or
// its alias Config.Overlap) — which only moves the bottom-MLP halves into
// the SPTT peer-AlltoAll windows and the bucket launch/finish points across
// phases and the step boundary; schedule.go describes both and why they are
// the same mathematics. Stats splits communication time into exposed vs
// hidden to measure exactly how much each schedule hid. A sequential reference step
// (Config.Sequential) executes the same mathematics in a single goroutine
// with centralized averaging loops, as BenchmarkDistributedStep's baseline
// and the bitwise cross-check every schedule is tested against.
//
// Gradients are normalized so that one distributed step over G ranks with
// local batch B is mathematically identical to one single-process step over
// the concatenated global batch of G·B samples — the package test verifies
// the two trajectories agree step for step, which is the training-paradigm
// counterpart of the sptt package's forward/backward equivalence theorems.
// Because the comm runtime reduces in source-rank order, the rank-parallel
// and sequential paths are bitwise identical, not merely close.
package distributed

import (
	"fmt"
	"time"

	"dmt/internal/comm"
	"dmt/internal/data"
	"dmt/internal/embeddings"
	"dmt/internal/models"
	"dmt/internal/netsim"
	"dmt/internal/nn"
	"dmt/internal/perfmodel"
	"dmt/internal/quant"
	"dmt/internal/sptt"
	"dmt/internal/tensor"
)

// Config sizes a distributed DMT-DLRM training job.
type Config struct {
	// Cluster shape: G ranks, L per host.
	G, L int
	// LocalBatch per rank.
	LocalBatch int
	// Model holds the DMT-DLRM architecture. Its Towers may list features
	// in any order: New reorders each tower into SPTT "host order" itself.
	Model models.DMTDLRMConfig
	// Learning rates (Adam for dense, SparseAdam for tables).
	DenseLR  float32
	SparseLR float32
	// Seed is not read. The tables are seeded once, by Model.Seed, as rank
	// 0's replica would seed them, and every other holder shares them.
	Seed uint64
	// Sequential selects the single-goroutine reference step instead of the
	// rank-parallel engine. Both follow bitwise-identical trajectories; the
	// sequential path exists as the benchmark baseline and cross-check.
	Sequential bool
	// Overlap is an alias for Pipeline: 1, kept while benchmark/ sets it.
	// Mutually exclusive with Sequential.
	Overlap bool
	// Pipeline selects the cross-step pipelined schedule (schedule.go) at
	// the given depth: the SPTT forward's cross-host peer AlltoAll runs
	// concurrently with the bottom-MLP forward, the reverse one with the
	// bottom-MLP backward, the over-arch gradient reduce launches in
	// readiness-ordered buckets during the dense backward, and step N's
	// buckets complete while step N+1's SPTT forward is already running.
	// Supported depths are 0 (off) and 1 (buckets span one boundary). The
	// over-arch Adam update
	// moves behind the boundary with them — still applied before the
	// parameters are read, so the trajectory stays bitwise identical to
	// the sequential engine; Trainer.Drain (Close is Drain) completes the
	// final step's carried work. Every trainer New builds can carry work
	// across the boundary: each table has exactly one owner (New derives
	// RankOf through sptt.TowerAssignment, a slice indexed by table), and the
	// tower modules and the over-arch are separate nn.Linears
	// (models.NewDMTDLRM), so they share no parameter. Mutually exclusive
	// with Sequential.
	Pipeline int
	// BucketBytes caps how many gradient bytes one over-arch reduction
	// bucket carries. Parameters are always grouped whole: encoding
	// boundaries must match the golden per-parameter trajectory, or
	// compressed runs would quantize over different row structures and
	// break bitwise identity. 0 means 64 KiB. Degenerate values are
	// clamped rather than rejected: any cap <= 0 falls back to the 64 KiB
	// default, and a cap smaller than a parameter's own gradient bytes
	// degrades to one-parameter buckets (a parameter larger than the cap
	// always gets a bucket to itself, and nothing shares it) — the plan
	// stays a valid whole-parameter cover in every case.
	BucketBytes int
	// Compression selects wire compression for the engine's collectives.
	// The zero value (both schemes None) keeps the engine bitwise identical
	// to the uncompressed trajectory.
	Compression Compression
	// Fabric, when non-nil, prices every collective of the step: messages
	// arrive after the fabric's modeled point-to-point transfer time
	// (netsim.P2PTime over the G/L host placement; wire bytes, so compression
	// shrinks delays), per-rank virtual clocks are advanced by modeled dense
	// compute, and the phase walls are a deterministic virtual-time
	// decomposition. Without it the network is zero-delay: messages cost
	// nothing, no compute is charged, and Stats.Phases and Stats.Sim are
	// zero. The trajectory itself is unchanged: delay moves time, never
	// values.
	Fabric *netsim.Fabric
	// EmbeddingTier disaggregates the embedding tables onto dedicated
	// server ranks. The zero value keeps them in-process (a Local).
	EmbeddingTier EmbeddingTier
}

// EmbeddingTier configures embedding disaggregation (DisaggRec-style memory
// nodes reached over the fabric).
type EmbeddingTier struct {
	// Servers is the number of dedicated embedding-server ranks; 0 keeps
	// the tables in-process. Server s joins the simulated network as global
	// rank G+s on its own memory host and owns every table f with
	// f % Servers == s, so all lookup/update traffic is cross-host.
	Servers int
	// CacheRows is each compute rank's hot-ID cache capacity in rows
	// (write-back LRU in front of the wire); 0 disables caching.
	CacheRows int
}

// Compression is the quantized-communication policy (§6 / the Strong
// Baseline's quantized comms, Yang et al. 2021). The embedding dataflow is
// compressed topology-aware — cross-host hops shrink while intra-host
// NVLink traffic stays fp32 — and the over-arch gradient reduce to the row
// owners, whose volume is dominated by cross-host pairs, is compressed on
// every hop with error feedback absorbing the rounding. The owners' weight
// gather that answers it stays fp32: re-quantizing weights would move the
// trajectory.
type Compression struct {
	// Gradient compresses the over-arch gradient reduce with per-rank
	// error feedback: each rank quantizes g + r, where the residual r
	// carries that rank's accumulated round-trip error into the next step
	// (1-bit Adam style memory), so quantization error does not bias the
	// trajectory. The intra-tower gradient reduction is intra-host and
	// stays fp32.
	Gradient quant.Scheme
	// Embedding compresses the SPTT cross-host embedding payloads — the
	// step (f) peer AlltoAll and its backward counterpart — while the
	// intra-host step (d) AlltoAll stays fp32.
	Embedding quant.Scheme
}

// Trainer holds the replicas, the dataflow engine, and optimizer state.
type Trainer struct {
	cfg      Config
	engine   *sptt.Engine
	replicas []*models.DMTDLRM
	modules  []sptt.TowerModule
	// Each rank's dense optimizers. The over-arch and tower-module parameter
	// sets get separate Adam instances because the pipelined schedule
	// applies their updates in different phases (over-arch behind the step
	// boundary, tower module inside the step). nn.Adam state is per element
	// and the sets are disjoint, so splitting the optimizer is
	// value-neutral: each element sees the same t/m/v sequence as under one
	// fused instance. The rank-parallel engine steps each over-arch row on
	// its owner alone (rankShard.owned), so overOpts[g] holds moments for
	// rank g's rows only; the sequential reference steps every replica
	// whole. Tower-module replicas stay in lockstep through identical state.
	overOpts []*nn.Adam
	tmOpts   []*nn.Adam
	loss     []*nn.BCEWithLogits
	// tier is the embedding backend: a Local over the trainer's one
	// table set, or a RemoteTier of dedicated server ranks that takes the
	// set over (Config.EmbeddingTier). Sparse optimizer state lives inside
	// it.
	tier embeddings.Tier

	// world is the persistent global group the rank-parallel step uses for
	// dense compute and the over-arch reduce and gather; its cumulative
	// traffic counters feed Stats.
	world []*comm.Comm
	// tmReduceBytes is the per-step wire volume of the intra-tower gradient
	// AllReduce that SPTTBackward performs on the host groups: per rank and
	// parameter, (L-1) copies of the gradient leave the rank.
	tmReduceBytes int64
	stats         Stats
	// sched is the rank-parallel schedule the executor reads, resolved from
	// the Config selectors at New (unused by the sequential reference).
	sched schedule
	// buckets is the launch plan for the over-arch gradient reduction, in
	// launch order, with each bucket's row owners (identical on every
	// rank).
	buckets []gradBucket
	// Cumulative world-group timing at the end of the previous step, so
	// each step can charge its own exposed/hidden delta.
	lastWorldExposed time.Duration
	lastWorldHidden  time.Duration

	// net is the one network of per-rank virtual clocks (see New). The
	// modeled per-rank dense compute charged to them each step is zero
	// without Config.Fabric; with it, 2 FLOPs per weight element per sample
	// forward, twice that backward (input-grad + weight-grad), over the
	// generation's calibrated effective throughput.
	net       *comm.Network
	bottomFwd time.Duration
	topFwd    time.Duration
	bottomBwd time.Duration
	topBwd    time.Duration

	// residuals[g][pi] is rank g's error-feedback memory for over-arch
	// parameter pi: the part of g+r the wire scheme rounded away last step.
	// Allocated only when Compression.Gradient is active; each rank writes
	// only its own slots, so the rank-parallel engine needs no locking.
	residuals [][]*tensor.Tensor

	// shards[g] is rank g's side of the row ownership: views of its rows,
	// its wire scratch and its owned rows' Adam parameters (see rankShard).
	// Unused by the sequential reference path.
	shards []rankShard

	// Cross-step state (Config.Pipeline): the previous step's still-in-
	// flight gradient buckets, per rank in launch order.
	carried [][]pendingBucket
}

// PhaseTimes is cumulative modeled time per step phase: the network's
// virtual time under Config.Fabric. Without a Fabric nothing is modeled and
// every field is zero.
type PhaseTimes struct {
	// EmbComm covers the SPTT embedding dataflow: forward distribution with
	// tower-module compression plus the backward pass (which also carries
	// the intra-tower gradient reduction).
	EmbComm time.Duration
	// Dense covers per-rank over-arch forward/backward and loss.
	Dense time.Duration
	// GradExchange covers over-arch gradient averaging and the tower/sparse
	// gradient normalization.
	GradExchange time.Duration
	// Update covers dense optimizer steps and owner-applied sparse updates.
	Update time.Duration
	// ExposedComm is the mean-per-rank modeled transfer time ranks waited for
	// in collective receives — communication the schedule failed to hide. It
	// spans every group the step touched: the world group plus the SPTT
	// dataflow's global/host/peer families, forward and backward.
	ExposedComm time.Duration
	// HiddenComm is the mean-per-rank virtual-time window of non-blocking
	// collectives between issue and Wait — communication covered by
	// overlapping modeled compute or by another wait. The pipelined
	// schedule exists to raise it.
	// Windows of concurrently in-flight collectives are merged (interval
	// union), so a rank's hidden time never exceeds the span its clock
	// covered.
	HiddenComm time.Duration
	// CrossStepExposed/CrossStepHidden sub-attribute the pipelined
	// schedule's carried gradient buckets: of the completing step's
	// ExposedComm/HiddenComm, the share spent finishing buckets launched
	// by the PREVIOUS step (Config.Pipeline). They are a breakdown of the
	// totals above, not additive to them; zero under the blocking schedule.
	CrossStepExposed time.Duration
	CrossStepHidden  time.Duration
}

// SimTimes is the virtual-clock decomposition, zero unless Config.Fabric is
// set: the modeled dense compute charged to each rank's virtual clock and
// the SPTT dataflow's exposed/hidden split by direction — the components of
// the measured Figure 13 table. All fields are cumulative; the SPTT fields
// are mean-per-rank. Deterministic: every value is derived from the byte
// stream and the analytic compute model, never from wall time.
type SimTimes struct {
	// DenseFwd/DenseBwd are the modeled over-arch forward/backward compute
	// per rank (identical on every rank by symmetry).
	DenseFwd time.Duration
	DenseBwd time.Duration
	// SPTT forward/backward modeled communication, split into transfer
	// time the schedule exposed vs hid behind compute.
	SPTTFwdExposed time.Duration
	SPTTFwdHidden  time.Duration
	SPTTBwdExposed time.Duration
	SPTTBwdHidden  time.Duration
}

// Stats reports cumulative step counts, per-phase times, and gradient /
// embedding wire volumes split by fabric (intra-host NVLink vs cross-host
// RDMA), the split the paper's whole argument is about.
type Stats struct {
	Steps int
	// Phases is modeled virtual time; zero unless the trainer runs with
	// Config.Fabric.
	Phases PhaseTimes
	// Gradient synchronization bytes: the over-arch reduce and weight
	// gather (measured on the world group) plus the intra-tower reduction
	// (always intra-host).
	// The sequential reference path exchanges dense gradients through
	// memory, so only the tower-module share appears there.
	GradIntraHostBytes int64
	GradCrossHostBytes int64
	// Embedding dataflow bytes: SPTT forward and backward, all fabrics.
	EmbIntraHostBytes int64
	EmbCrossHostBytes int64
	// Sim is the virtual-clock component breakdown; zero unless the trainer
	// runs with Config.Fabric.
	Sim SimTimes
	// Tier is the embedding tier's traffic: wire bytes, cache counters, and
	// modeled exposed lookup/update time. Bytes are zero for the in-process
	// Local tier — lookups there are memory reads.
	Tier embeddings.TierStats
}

// towersInHostOrder converts a tower partition into the feature order the
// SPTT dataflow materializes (per local rank ascending within each tower),
// so the single-process model and the distributed dataflow agree on column
// layout.
func towersInHostOrder(towers [][]int, nFeatures, l int) ([][]int, []int, []int, error) {
	towerOf, rankOf, err := sptt.TowerAssignment(towers, nFeatures, l)
	if err != nil {
		return nil, nil, nil, err
	}
	cfg := sptt.Config{G: len(towers) * l, L: l, TowerOf: towerOf, RankOf: rankOf}
	ordered := make([][]int, len(towers))
	for t := range towers {
		ordered[t] = cfg.TowerFeatures(t)
	}
	return ordered, towerOf, rankOf, nil
}

// New builds the trainer: G model replicas whose dense modules are
// independent copies with identical parameters (same seed) and whose
// embedding tables are one set, seeded once as replica 0's; an embedding
// tier and an SPTT engine that adopt that same set; and per-rank
// tower-module bindings.
func New(cfg Config) (*Trainer, error) {
	t := cfg.G / cfg.L
	if len(cfg.Model.Towers) != t {
		return nil, fmt.Errorf("distributed: %d towers for %d hosts", len(cfg.Model.Towers), t)
	}
	sched, err := resolveSchedule(cfg)
	if err != nil {
		return nil, err
	}
	ordered, towerOf, rankOf, err := towersInHostOrder(cfg.Model.Towers, cfg.Model.Schema.NumSparse(), cfg.L)
	if err != nil {
		return nil, err
	}
	cfg.Model.Towers = ordered

	tr := &Trainer{cfg: cfg, sched: sched}
	var tables []*nn.EmbeddingBag // replica 0's, seeded by cfg.Model.Seed
	for g := 0; g < cfg.G; g++ {
		m := models.NewDMTDLRMSharing(cfg.Model, tables)
		tables = m.Embs
		tr.replicas = append(tr.replicas, m)
		tr.modules = append(tr.modules, m.TMs[g/cfg.L])
		tr.overOpts = append(tr.overOpts, nn.NewAdam(cfg.DenseLR))
		tr.tmOpts = append(tr.tmOpts, nn.NewAdam(cfg.DenseLR))
		tr.loss = append(tr.loss, &nn.BCEWithLogits{})
		for _, p := range tr.modules[g].Params() {
			tr.tmReduceBytes += int64(cfg.L-1) * 4 * int64(p.Grad.Len())
		}
	}

	// The network spans the compute ranks plus the embedding-server ranks
	// (each on its own memory host): the world group, the SPTT families and
	// the tier share its clocks and its one failure domain. A Fabric prices
	// it; without one it is zero-delay.
	var model comm.LatencyModel
	if cfg.Fabric != nil {
		model = fabricLatency{f: cfg.Fabric, g: cfg.G, l: cfg.L}
		bot := nn.CountParams(tr.replicas[0].Bottom)
		top := nn.CountParams(tr.replicas[0].Top)
		// ns per weight element: 2 FLOPs per element per sample forward,
		// over the generation's calibrated effective training throughput.
		perElem := 2 * float64(cfg.LocalBatch) / (perfmodel.EffectiveTFlops(cfg.Fabric.Gen) * 1e12) * 1e9
		tr.bottomFwd = time.Duration(float64(bot) * perElem)
		tr.topFwd = time.Duration(float64(top) * perElem)
		tr.bottomBwd = 2 * tr.bottomFwd
		tr.topBwd = 2 * tr.topFwd
	}
	tr.net = comm.NewNetwork(model, cfg.G+cfg.EmbeddingTier.Servers)
	// The embedding tier holds the canonical tables and their sparse
	// optimizer state; the dataflow engine's step (b) lookups and the update
	// phase both go through it.
	if s := cfg.EmbeddingTier.Servers; s > 0 {
		tr.tier = embeddings.NewRemote(embeddings.RemoteConfig{
			Clients:   cfg.G,
			Servers:   s,
			Tables:    tables,
			SparseLR:  cfg.SparseLR,
			CacheRows: cfg.EmbeddingTier.CacheRows,
			Net:       tr.net,
		})
	} else {
		tr.tier = embeddings.NewLocal(tables, cfg.SparseLR)
	}
	scfg := sptt.Config{
		G: cfg.G, L: cfg.L, B: cfg.LocalBatch, N: cfg.Model.N,
		TowerOf: towerOf, RankOf: rankOf,
	}
	for f := 0; f < cfg.Model.Schema.NumSparse(); f++ {
		scfg.Features = append(scfg.Features, sptt.FeatureSpec{
			Name:        fmt.Sprintf("emb%d", f),
			Cardinality: cfg.Model.Schema.Cardinalities[f],
			Hot:         cfg.Model.Schema.HotSizes[f],
		})
	}
	if tr.engine, err = sptt.NewEngineOver(scfg, tables, tr.tier); err != nil {
		return nil, err
	}
	tr.world = comm.NewGroupNet(cfg.G, tr.net, nil)
	tr.buckets = planBuckets(tr.replicas[0], cfg.BucketBytes)
	assignOwners(tr.buckets, tr.replicas[0].OverArchParams(), cfg.G)
	if cfg.Compression.Gradient != quant.None {
		for g := 0; g < cfg.G; g++ {
			var rs []*tensor.Tensor
			for _, p := range tr.replicas[g].OverArchParams() {
				rs = append(rs, tensor.New(p.Value.Shape()...))
			}
			tr.residuals = append(tr.residuals, rs)
		}
	}
	if !cfg.Sequential {
		for g := 0; g < cfg.G; g++ {
			tr.shards = append(tr.shards, tr.newShard(g))
		}
	}
	return tr, nil
}

// Residual exposes rank g's error-feedback memory for over-arch parameter
// pi (nil when gradient compression is off) — test and diagnostics hook.
func (tr *Trainer) Residual(g, pi int) *tensor.Tensor {
	if tr.residuals == nil {
		return nil
	}
	return tr.residuals[g][pi]
}

// Engine exposes the dataflow engine. Its tables are the trainer's one
// table set, the ones every replica holds.
func (tr *Trainer) Engine() *sptt.Engine { return tr.engine }

// Network exposes the simulated network, zero-delay without Config.Fabric —
// test and diagnostics hook for the per-rank virtual clocks.
func (tr *Trainer) Network() *comm.Network { return tr.net }

// fabricLatency adapts netsim's point-to-point cost model to the comm
// runtime: compute ranks 0..G-1 are laid out Config.L per host, so a pair
// shares NVLink iff they share a host index, and embedding-server ranks
// G, G+1, ... each occupy their own memory host — every tier round is a
// cross-host hop. The delay is a pure function of (src, dst, bytes), which
// is what makes the virtual timeline reproducible.
type fabricLatency struct {
	f    *netsim.Fabric
	g, l int
}

func (m fabricLatency) hostOf(r int) int {
	if r < m.g {
		return r / m.l
	}
	return m.g/m.l + (r - m.g)
}

func (m fabricLatency) P2PDelay(src, dst, nbytes int) time.Duration {
	if src == dst {
		return 0
	}
	return time.Duration(m.f.P2PTime(nbytes, m.hostOf(src) == m.hostOf(dst)) * float64(time.Second))
}

// charge advances rank g's virtual clock by a modeled compute duration
// (zero without Config.Fabric). This is how dense compute hides in-flight
// collectives in virtual time.
func (tr *Trainer) charge(g int, d time.Duration) {
	tr.net.Clock(g).Advance(d)
}

// phaseClock returns a lap function for the step's phase walls: each call
// yields the network's mean virtual time since the previous one, so
// PhaseTimes decomposes the modeled timeline. Without Config.Fabric nothing
// is modeled and every lap is zero.
func (tr *Trainer) phaseClock() func() time.Duration {
	last := tr.net.Now()
	return func() time.Duration {
		t := tr.net.Now()
		d := t - last
		last = t
		return d
	}
}

// Replica returns rank g's model replica: a complete model, whose dense
// modules are rank g's own and whose Embs are the trainer's one table set,
// shared with every other replica and the engine, and trained in place.
func (tr *Trainer) Replica(g int) *models.DMTDLRM { return tr.replicas[g] }

// Stats returns cumulative step statistics.
func (tr *Trainer) Stats() Stats {
	s := tr.stats
	intra, cross := comm.SplitByHost(comm.TrafficMatrix(tr.world), tr.cfg.L)
	s.GradIntraHostBytes = intra + int64(s.Steps)*tr.tmReduceBytes
	s.GradCrossHostBytes = cross
	s.Tier = tr.tier.Stats()
	return s
}

// Tier exposes the embedding tier (test and diagnostics hook).
func (tr *Trainer) Tier() embeddings.Tier { return tr.tier }

// Close is Drain: it completes any cross-step carried work (a no-op
// outside the pipelined schedule). The trainer holds nothing else to
// release — the embedding tier runs no goroutine of its own — and Close is
// kept only because benchmark/'s workloads call it.
func (tr *Trainer) Close() { tr.Drain() }

// StepResult summarizes one distributed step.
type StepResult struct {
	MeanLoss float64
	// PerRankLoss is each rank's local BCE.
	PerRankLoss []float64
}

// Step runs one synchronous training iteration: batches[g] is rank g's
// local minibatch.
func (tr *Trainer) Step(batches []*data.Batch) StepResult {
	cfg := tr.cfg
	if len(batches) != cfg.G {
		panic(fmt.Sprintf("distributed: %d batches for %d ranks", len(batches), cfg.G))
	}
	inputs := make([]*sptt.Inputs, cfg.G)
	for g, b := range batches {
		inputs[g] = &sptt.Inputs{Indices: b.Indices, Offsets: b.Offsets}
	}
	if cfg.Sequential {
		return tr.stepSequential(batches, inputs)
	}
	return tr.stepRanks(batches, inputs)
}

// denseRank is rank g's share of the sequential reference's dense phase —
// over-arch forward, loss, and backward on the rank-local replica, through
// the unstaged model methods the executor's staged calls compose to. It
// returns the gradient of the rank's compressed tower outputs, with
// BackwardDense's lifetime.
//
//dmt:transient-result
func (tr *Trainer) denseRank(g int, batches []*data.Batch, compressed []*tensor.Tensor, res *StepResult) *tensor.Tensor {
	m := tr.replicas[g]
	for _, p := range m.DenseParams() {
		p.ZeroGrad()
	}
	logits := m.ForwardDense(batches[g].Dense, compressed[g])
	res.PerRankLoss[g] = tr.loss[g].Forward(logits, batches[g].Labels)
	tr.charge(g, tr.bottomFwd+tr.topFwd)
	dc := m.BackwardDense(tr.loss[g].Backward())
	tr.charge(g, tr.bottomBwd+tr.topBwd)
	return dc
}

// scaleRank normalizes rank g's tower-module gradients and the sparse
// gradients of its owned features to the global-batch mean — the
// non-over-arch share of the gradient-exchange phase.
func (tr *Trainer) scaleRank(g int, sparse map[int]*nn.SparseGrad, invG float32) {
	for _, p := range tr.modules[g].Params() {
		tensor.ScaleInPlace(p.Grad, invG)
	}
	for _, f := range tr.engine.Owned(g) {
		if sg := sparse[f]; sg != nil {
			tensor.ScaleInPlace(sg.Grads, invG)
		}
	}
}

// applySparse ships rank g's owned sparse gradients through its tier store.
// The Update is issued even when the rank owns nothing: remote stores count
// one round per client per phase (round symmetry).
func (tr *Trainer) applySparse(g int, sparse map[int]*nn.SparseGrad) {
	var ups []embeddings.Upd
	for _, f := range tr.engine.Owned(g) {
		if sg := sparse[f]; sg != nil && len(sg.Rows) > 0 {
			ups = append(ups, embeddings.Upd{Table: f, Rows: sg.Rows, GradRows: sg.Grads})
		}
	}
	tr.tier.Client(g).Update(ups)
}

// stepSequential is the single-goroutine reference: identical mathematics,
// with the dense phases executed rank by rank and gradients averaged through
// centralized cross-replica loops instead of collectives.
func (tr *Trainer) stepSequential(batches []*data.Batch, inputs []*sptt.Inputs) StepResult {
	cfg := tr.cfg
	lap := tr.phaseClock()
	compressed, st := tr.engine.SPTTForwardCompressed(inputs, tr.modules,
		sptt.Options{Comms: sptt.Comms{CrossHost: cfg.Compression.Embedding, Net: tr.net}})
	embFwd := lap()

	res := StepResult{PerRankLoss: make([]float64, cfg.G)}
	dCompressed := make([]*tensor.Tensor, cfg.G)
	for g := 0; g < cfg.G; g++ {
		dCompressed[g] = tr.denseRank(g, batches, compressed, &res)
		res.MeanLoss += res.PerRankLoss[g] / float64(cfg.G)
	}
	dense := lap()

	sparse := tr.engine.SPTTBackward(st, dCompressed)
	embBwd := lap()

	invG := 1 / float32(cfg.G)
	overArch := make([][]*nn.Param, cfg.G)
	for g := 0; g < cfg.G; g++ {
		overArch[g] = tr.replicas[g].OverArchParams()
	}
	s := cfg.Compression.Gradient
	for pi := range overArch[0] {
		var avg *tensor.Tensor
		if s == quant.None {
			avg = overArch[0][pi].Grad.Clone()
			for g := 1; g < cfg.G; g++ {
				tensor.AddInPlace(avg, overArch[g][pi].Grad)
			}
		} else {
			// Centralized mirror of launchBucket/finishBucket: quantize each
			// rank's g + r contribution (quant.Apply is exactly the wire
			// round trip), update that rank's residual, sum in rank order.
			for g := 0; g < cfg.G; g++ {
				v := overArch[g][pi].Grad.Clone()
				tensor.AddInPlace(v, tr.residuals[g][pi])
				vq := quant.Apply(s, v)
				tr.residuals[g][pi] = tensor.Sub(v, vq)
				if g == 0 {
					avg = vq
				} else {
					tensor.AddInPlace(avg, vq)
				}
			}
		}
		tensor.ScaleInPlace(avg, invG)
		for g := 0; g < cfg.G; g++ {
			overArch[g][pi].Grad.CopyFrom(avg)
		}
	}
	for g := 0; g < cfg.G; g++ {
		tr.scaleRank(g, sparse, invG)
	}
	gradEx := lap()

	for g := 0; g < cfg.G; g++ {
		tr.overOpts[g].Step(overArch[g])
		tr.tmOpts[g].Step(tr.modules[g].Params())
	}
	// Sparse updates go through the tier in ascending rank order — the
	// order a remote tier's server turns pass in (and, per table, the same
	// optimizer math the owner-rank engine applies).
	for g := 0; g < cfg.G; g++ {
		tr.applySparse(g, sparse)
	}
	update := lap()

	exposed, hidden := tr.commTimes(st)
	tr.account(st, PhaseTimes{
		EmbComm:      embFwd + embBwd,
		Dense:        dense,
		GradExchange: gradEx,
		Update:       update,
		ExposedComm:  exposed,
		HiddenComm:   hidden,
	})
	return res
}

// commTimes returns the step's mean-per-rank exposed/hidden communication
// times: the world group's delta since the previous step plus the SPTT
// state's forward and backward contributions, divided by the rank count.
func (tr *Trainer) commTimes(st *sptt.SPTTState) (exposed, hidden time.Duration) {
	e, h := comm.GroupTimes(tr.world)
	de, dh := e-tr.lastWorldExposed, h-tr.lastWorldHidden
	tr.lastWorldExposed, tr.lastWorldHidden = e, h
	g := time.Duration(tr.cfg.G)
	return (de + st.ExposedComm + st.BwdExposedComm) / g,
		(dh + st.HiddenComm + st.BwdHiddenComm) / g
}

// account folds one step's phase times and SPTT traffic into the cumulative
// stats. Every PhaseTimes field must be folded here — the package test
// walks the struct by reflection and fails on a field account forgot. The
// intra-tower gradient reduction rides SPTTBackward's host groups, so its
// (analytically known, purely intra-host) volume is moved from the
// embedding counters to the gradient counters.
func (tr *Trainer) account(st *sptt.SPTTState, ph PhaseTimes) {
	tr.stats.Steps++
	tr.stats.Phases.EmbComm += ph.EmbComm
	tr.stats.Phases.Dense += ph.Dense
	tr.stats.Phases.GradExchange += ph.GradExchange
	tr.stats.Phases.Update += ph.Update
	tr.stats.Phases.ExposedComm += ph.ExposedComm
	tr.stats.Phases.HiddenComm += ph.HiddenComm
	tr.stats.Phases.CrossStepExposed += ph.CrossStepExposed
	tr.stats.Phases.CrossStepHidden += ph.CrossStepHidden
	g := time.Duration(tr.cfg.G)
	tr.stats.Sim.DenseFwd += tr.bottomFwd + tr.topFwd
	tr.stats.Sim.DenseBwd += tr.bottomBwd + tr.topBwd
	tr.stats.Sim.SPTTFwdExposed += st.ExposedComm / g
	tr.stats.Sim.SPTTFwdHidden += st.HiddenComm / g
	tr.stats.Sim.SPTTBwdExposed += st.BwdExposedComm / g
	tr.stats.Sim.SPTTBwdHidden += st.BwdHiddenComm / g
	for _, m := range [][][]int64{
		st.GlobalTraffic, st.HostTraffic, st.PeerTraffic,
		st.BwdGlobalTraffic, st.BwdHostTraffic, st.BwdPeerTraffic,
	} {
		intra, cross := comm.SplitByHost(m, tr.cfg.L)
		tr.stats.EmbIntraHostBytes += intra
		tr.stats.EmbCrossHostBytes += cross
	}
	tr.stats.EmbIntraHostBytes -= tr.tmReduceBytes
}

// ReplicasInSync checks that every rank's over-arch parameters and every
// host's tower-module replicas are bit-identical — the invariant that makes
// data parallelism correct.
func (tr *Trainer) ReplicasInSync() error {
	base := tr.replicas[0].OverArchParams()
	for g := 1; g < tr.cfg.G; g++ {
		for pi, p := range tr.replicas[g].OverArchParams() {
			if !p.Value.Equal(base[pi].Value) {
				return fmt.Errorf("distributed: rank %d over-arch param %s diverged", g, p.Name)
			}
		}
	}
	for h := 0; h < tr.cfg.G/tr.cfg.L; h++ {
		base := tr.modules[h*tr.cfg.L].Params()
		for j := 1; j < tr.cfg.L; j++ {
			for pi, p := range tr.modules[h*tr.cfg.L+j].Params() {
				if !p.Value.Equal(base[pi].Value) {
					return fmt.Errorf("distributed: host %d TM replica %d param %s diverged", h, j, p.Name)
				}
			}
		}
	}
	return nil
}
