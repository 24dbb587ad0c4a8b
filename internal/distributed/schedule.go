package distributed

import (
	"fmt"
	"sync/atomic"
	"time"

	"dmt/internal/comm"
	"dmt/internal/data"
	"dmt/internal/sptt"
	"dmt/internal/tensor"
)

// schedule is the data the one rank-parallel executor (stepRanks) reads.
// Every schedule walks the same phase order — SPTT forward, dense, SPTT
// backward, gradient exchange, update — and performs the same arithmetic;
// a schedule only says which communication window the bottom-MLP halves
// run in and where the over-arch gradient buckets launch and finish.
type schedule struct {
	// fwdInWindow runs each rank's bottom-MLP forward between the post and
	// the wait of the SPTT forward's step (f) peer AlltoAll — the cross-host
	// hop — through sptt.Comms.Overlap, instead of at the head of the dense
	// phase. In latency mode the charged bottom-forward compute then covers
	// (part of) the hop's modeled transfer time.
	fwdInWindow bool
	// bwdInWindow runs the bottom-MLP backward (and, with launchAtReadiness,
	// the bottom-bucket launches) inside the REVERSE step (f) window of the
	// SPTT backward through sptt.Comms.BwdOverlap, instead of at the tail
	// of the dense phase, hiding the return transfer the same way.
	bwdInWindow bool
	// launchAtReadiness posts each gradient bucket the moment its gradients
	// are final — top-MLP buckets right after BackwardTop (they fly while
	// the bottom backward runs), bottom-MLP buckets right after
	// BackwardBottom — instead of all of them in the exchange phase.
	launchAtReadiness bool
	// finish is where a launched bucket completes.
	finish finishPoint
}

type finishPoint int

const (
	// finishAtLaunch waits each bucket before the next one is posted.
	finishAtLaunch finishPoint = iota
	// finishAfterBackward completes the buckets in the exchange phase, so
	// they ride out the rest of the dense backward and the whole SPTT
	// backward: in latency mode the backward's modeled collective time
	// advances the ranks' clocks past the buckets' ready-times.
	finishAfterBackward
	// finishNextStep leaves the buckets in flight across the step boundary
	// (Pending.Carry). They complete at the head of the NEXT step's
	// bottom-MLP forward — inside that step's forward window — followed at
	// once by the deferred over-arch Adam step; Drain completes the last
	// step's.
	finishNextStep
)

// The three schedules Config selects. They are values of one type precisely
// because they are the same mathematics:
//
//   - blocking: nothing overlaps; every collective is waited where it is
//     posted.
//   - overlapped (Config.Overlap): EmbComm hides behind the bottom-MLP
//     forward and GradExchange behind the remaining dense backward and the
//     embedding backward.
//   - pipelined (Config.Pipeline): the overlapped schedule extended across
//     the step boundary, where the overlapped schedule still drains its
//     buckets while the next SPTT forward sits idle. Step N's buckets
//     complete while step N+1's step (f) peer AlltoAll is in flight, and the
//     reverse peer AlltoAll hides under the bottom-MLP backward. Over S
//     steps the residual drain exposure is paid once (Drain) instead of S
//     times.
//
// Why moving work between windows is legal, and bitwise identical to the
// sequential reference:
//
//   - Arithmetic. See buckets.go: one collective per parameter, source-rank
//     summation order, whole-parameter buckets. The staged model methods
//     compose exactly (ForwardDense = ForwardDenseFrom∘ForwardBottom,
//     BackwardDense = BackwardBottom after BackwardTop).
//   - Independence. The SPTT forward touches embedding tables and
//     tower-module parameters; carried work touches over-arch parameters.
//     The sets are disjoint by construction: models.NewDMTDLRM builds the
//     tower modules and the over-arch as separate nn.Linears, and each table
//     has exactly one owner, since New derives RankOf (a slice indexed by
//     table) through sptt.TowerAssignment, which rejects invalid, duplicate
//     and missing features, and sptt.Config.Validate range-checks it. So
//     reordering the over-arch update behind the boundary changes no value
//     any concurrent reader observes. Tower-module Adam and the
//     owner-applied sparse updates never cross the boundary: the next
//     forward reads them, and their collectives already hid inside
//     SPTTBackward.
//   - Update placement. The over-arch Adam step still runs after the bucket
//     averages land and before ForwardBottom reads the parameters — the
//     same read-after-update dataflow under every schedule, just later in
//     wall/virtual time. Splitting the dense Adam into over-arch and
//     tower-module instances is value-neutral: nn.Adam state is per
//     parameter and the two sets are disjoint.
//   - Wire format. Handles are waited in issue order (the launch plan's
//     order) by a goroutine of the issuing rank, sequenced by Run joins,
//     before any new collective is issued on the world group — exactly the
//     Pending contract. The window hooks run on the rank's SPTT dataflow
//     goroutine and touch only rank-private state and the world group,
//     which is disjoint from the dataflow's groups.
var (
	blocking   = schedule{}
	overlapped = schedule{fwdInWindow: true, launchAtReadiness: true, finish: finishAfterBackward}
	pipelined  = schedule{fwdInWindow: true, bwdInWindow: true, launchAtReadiness: true, finish: finishNextStep}
)

// resolveSchedule maps the Config selectors to a schedule value, rejecting
// contradictory combinations. Sequential trainers never read the result.
func resolveSchedule(cfg Config) (schedule, error) {
	switch {
	case cfg.Pipeline < 0 || cfg.Pipeline > 1:
		return schedule{}, fmt.Errorf("distributed: Pipeline depth %d unsupported (0 disables, 1 spans one step boundary)", cfg.Pipeline)
	case cfg.Sequential && (cfg.Overlap || cfg.Pipeline > 0):
		return schedule{}, fmt.Errorf("distributed: Overlap and Pipeline schedule the rank-parallel engine (Sequential=false)")
	case cfg.Overlap && cfg.Pipeline > 0:
		return schedule{}, fmt.Errorf("distributed: Pipeline and Overlap are distinct schedules; set at most one")
	case cfg.Pipeline > 0:
		return pipelined, nil
	case cfg.Overlap:
		return overlapped, nil
	}
	return blocking, nil
}

// PipelineActive reports whether the cross-step pipelined schedule is in
// effect (Config.Pipeline > 0).
func (tr *Trainer) PipelineActive() bool { return tr.sched == pipelined }

// PipelineFallback returns why a trainer asked to pipeline runs another
// schedule. It is always "": no trainer New builds can conflict across the
// step boundary (see the Independence note above), so Config.Pipeline always
// selects the pipelined schedule. It stays for callers that report it.
func (tr *Trainer) PipelineFallback() string { return "" }

// stepRanks is the rank-parallel executor: five phases, each with one
// goroutine per rank. The SPTT phases run on the engine's communicator
// families; the dense, exchange and update phases share the trainer's
// persistent world group. Phase walls always bound the step, but under a
// non-blocking schedule compute and communication deliberately cross them —
// the sharper lens is PhaseTimes.ExposedComm/HiddenComm.
func (tr *Trainer) stepRanks(batches []*data.Batch, inputs []*sptt.Inputs) StepResult {
	cfg, s := tr.cfg, tr.sched
	lap := tr.phaseClock()
	invG := 1 / float32(cfg.G)
	carried := tr.carried
	tr.carried = nil
	var crossE, crossH atomic.Int64 // carried-bucket completion, summed over ranks
	denseEmb := make([]*tensor.Tensor, cfg.G)
	dDenseEmb := make([]*tensor.Tensor, cfg.G)
	inflight := make([][]pendingBucket, cfg.G)
	// The plan lists the buckets final after BackwardTop first.
	nTop := 0
	for nTop < len(tr.buckets) && !tr.buckets[nTop].afterBottom {
		nTop++
	}

	// launch posts rank g's reduction of the given buckets, in plan order
	// (the wire format), and parks the handles for the schedule's finish
	// point — marked carried when that point lies past the step boundary.
	launch := func(g int, bs []gradBucket) {
		params := tr.replicas[g].OverArchParams()
		for _, b := range bs {
			pb := tr.launchBucket(g, params, b)
			switch s.finish {
			case finishAtLaunch:
				tr.finishBucket(params, pb, invG)
				continue
			case finishNextStep:
				pb.carry()
			}
			inflight[g] = append(inflight[g], pb)
		}
	}
	bottomForward := func(g int) {
		if carried != nil {
			e, h := tr.finishCarried(g, carried[g], invG)
			crossE.Add(int64(e))
			crossH.Add(int64(h))
		}
		m := tr.replicas[g]
		for _, p := range m.DenseParams() {
			p.ZeroGrad()
		}
		denseEmb[g] = m.ForwardBottom(batches[g].Dense)
		tr.charge(g, tr.bottomFwd)
	}
	bottomBackward := func(g int) {
		tr.replicas[g].BackwardBottom(dDenseEmb[g])
		tr.charge(g, tr.bottomBwd)
		if s.launchAtReadiness {
			launch(g, tr.buckets[nTop:])
		}
	}

	comms := sptt.Comms{CrossHost: cfg.Compression.Embedding, Net: tr.net}
	if s.fwdInWindow {
		comms.Overlap = bottomForward
	}
	if s.bwdInWindow {
		comms.BwdOverlap = bottomBackward
	}
	compressed, st := tr.engine.SPTTForwardCompressed(inputs, tr.modules, sptt.Options{Comms: comms})
	embFwd := lap()

	// Dense forward/backward. Replicas, losses, and per-rank result slots
	// are disjoint, so no synchronization beyond the Run join is needed.
	// Launches are non-blocking posts: nothing a later phase finishes is
	// waited here.
	res := StepResult{PerRankLoss: make([]float64, cfg.G)}
	dCompressed := make([]*tensor.Tensor, cfg.G)
	comm.Run(tr.world, func(c *comm.Comm) {
		g := c.Rank()
		m := tr.replicas[g]
		if !s.fwdInWindow {
			bottomForward(g)
		}
		logits := m.ForwardDenseFrom(denseEmb[g], compressed[g])
		res.PerRankLoss[g] = tr.loss[g].Forward(logits, batches[g].Labels)
		tr.charge(g, tr.topFwd)
		dCompressed[g], dDenseEmb[g] = m.BackwardTop(tr.loss[g].Backward())
		tr.charge(g, tr.topBwd)
		if s.launchAtReadiness {
			launch(g, tr.buckets[:nTop])
		}
		if !s.bwdInWindow {
			bottomBackward(g)
		}
	})
	// Summed in rank order after the join so the mean is deterministic.
	for g := 0; g < cfg.G; g++ {
		res.MeanLoss += res.PerRankLoss[g] / float64(cfg.G)
	}
	dense := lap()

	// Backward through the dataflow: tower-module gradients are reduced
	// intra-host inside SPTTBackward; sparse gradients land at the owners.
	sparse := tr.engine.SPTTBackward(st, dCompressed)
	embBwd := lap()

	// Gradient normalization to the global-batch mean (see package doc):
	// over-arch gradients average across all ranks through the buckets
	// (finishBucket scales them); tower-module gradients arrive host-summed
	// over all G·B samples and divide by G; sparse gradients likewise,
	// scaled by their owner.
	comm.Run(tr.world, func(c *comm.Comm) {
		g := c.Rank()
		if !s.launchAtReadiness {
			launch(g, tr.buckets)
		}
		if s.finish == finishAfterBackward {
			params := tr.replicas[g].OverArchParams()
			for _, pb := range inflight[g] {
				tr.finishBucket(params, pb, invG)
			}
		}
		tr.scaleRank(g, sparse, invG)
	})
	gradEx := lap()

	// Updates: each rank steps its over-arch (unless its gradients are
	// still on the wire) and its own tower module; each owner rank applies
	// sparse updates to its canonical tables through the embedding tier.
	comm.Run(tr.world, func(c *comm.Comm) {
		g := c.Rank()
		if s.finish != finishNextStep {
			tr.overOpts[g].Step(tr.replicas[g].OverArchParams())
		}
		tr.tmOpts[g].Step(tr.modules[g].Params())
		tr.applySparse(g, sparse)
	})
	update := lap()

	if s.finish == finishNextStep {
		tr.carried = inflight
	}

	exposed, hidden := tr.commTimes(st)
	tr.account(st, PhaseTimes{
		EmbComm:          embFwd + embBwd,
		Dense:            dense,
		GradExchange:     gradEx,
		Update:           update,
		ExposedComm:      exposed,
		HiddenComm:       hidden,
		CrossStepExposed: time.Duration(crossE.Load()) / time.Duration(cfg.G),
		CrossStepHidden:  time.Duration(crossH.Load()) / time.Duration(cfg.G),
	})
	return res
}

// finishCarried completes rank g's buckets carried over the last step
// boundary and applies the deferred over-arch Adam step — after the
// averages land, before anything reads the parameters. It returns the
// world group's exposed/hidden deltas around the waits, the cross-step
// sub-attribution (safe to read: the counters belong to this rank, and the
// caller is one of its goroutines, sequenced by the previous Run joins).
func (tr *Trainer) finishCarried(g int, pbs []pendingBucket, invG float32) (exposed, hidden time.Duration) {
	c := tr.world[g]
	params := tr.replicas[g].OverArchParams()
	e0, h0 := c.Times()
	for _, pb := range pbs {
		tr.finishBucket(params, pb, invG)
	}
	e1, h1 := c.Times()
	tr.overOpts[g].Step(params)
	return e1 - e0, h1 - h0
}

// Drain finishes whatever the last step carried across its boundary — each
// rank's in-flight gradient buckets and the deferred over-arch update —
// then asserts the comm runtime is fully drained. The drain's exposure is
// folded into the cumulative stats (without counting a step); all of it is
// cross-step time, since the world group has done nothing else since the
// last step ended. Idempotent, and a no-op when nothing is carried; Close
// calls it, and tests call it before comparing final parameters.
func (tr *Trainer) Drain() {
	carried := tr.carried
	if carried == nil {
		return
	}
	tr.carried = nil
	invG := 1 / float32(tr.cfg.G)
	comm.Run(tr.world, func(c *comm.Comm) {
		tr.finishCarried(c.Rank(), carried[c.Rank()], invG)
	})
	comm.AssertDrained(tr.world)

	exposed, hidden := tr.commTimes(&sptt.SPTTState{})
	tr.stats.Phases.ExposedComm += exposed
	tr.stats.Phases.HiddenComm += hidden
	tr.stats.Phases.CrossStepExposed += exposed
	tr.stats.Phases.CrossStepHidden += hidden
}
