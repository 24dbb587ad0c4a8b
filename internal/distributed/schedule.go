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

// schedule is the one choice the rank-parallel executor (stepRanks) reads.
// Both schedules walk the same phase order — SPTT forward, dense, SPTT
// backward, gradient exchange, update — and perform the same arithmetic;
// a schedule only says which communication window the bottom-MLP halves
// run in and where the over-arch gradient buckets launch and finish.
type schedule int

const (
	// blocking hides nothing under compute: the bottom-MLP halves run in
	// the dense phase, every bucket is launched in the exchange phase and
	// waited before the next one is posted, and the owners' Adam step and
	// both weight gathers complete in the update phase.
	blocking schedule = iota
	// pipelined (Config.Pipeline, or its alias Config.Overlap) hides the
	// step's communication under compute, within the step and across its
	// boundary:
	//   - the bottom-MLP forward runs between the post and the wait of the
	//     SPTT forward's step (f) peer AlltoAll, the cross-host hop
	//     (sptt.Comms.Overlap), and the bottom-MLP backward inside the
	//     reverse step (f) window of the SPTT backward (sptt.Comms.BwdOverlap),
	//     so in latency mode their charged compute covers (part of) the
	//     hops' modeled transfer time;
	//   - each gradient bucket is posted the moment its gradients are
	//     final — top-MLP buckets right after BackwardTop, bottom-MLP
	//     buckets right after BackwardBottom;
	//   - the buckets stay in flight across the step boundary
	//     (Pending.Carry). They complete at the head of the NEXT step,
	//     before its SPTT forward, followed at once by the owners' deferred
	//     Adam step and the posts of the weight gathers. Each gather is
	//     waited right before the first forward that reads it: the bottom
	//     MLP's before ForwardBottom, inside the forward window, and the top
	//     MLP's before ForwardDenseFrom. Drain completes the last step's.
	//
	// Over S steps the last gathers' exposure is paid once (Drain) instead
	// of S times.
	pipelined
)

// Why moving work between windows is legal, and bitwise identical to the
// sequential reference:
//
//   - Arithmetic. See buckets.go: one owner per row, source-rank summation
//     order, elementwise Adam, fp32 weights back. The staged model methods
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
//   - Update placement. The owners' over-arch Adam step still runs after
//     the bucket averages land, and every rank holds the gathered weights
//     before a forward reads them — the same read-after-update dataflow
//     under both schedules, just later in wall/virtual time. Splitting the
//     dense Adam into over-arch and tower-module instances, and the
//     over-arch one into row segments, is value-neutral: nn.Adam state is
//     per element and the sets are disjoint.
//   - Wire format. Handles are waited in issue order (the launch plan's
//     order, then the bottom gather, then the top one) by a goroutine of
//     the issuing rank, sequenced by Run joins, before any new collective
//     is issued on the world group — exactly the Pending contract. The
//     window hooks run on the rank's SPTT dataflow goroutine and touch only
//     rank-private state and the world group, which is disjoint from the
//     dataflow's groups.

// resolveSchedule maps the Config selectors to a schedule. Overlap and
// Pipeline both name the pipelined schedule; the sequential reference takes
// neither and never reads the result.
func resolveSchedule(cfg Config) (schedule, error) {
	switch {
	case cfg.Pipeline < 0 || cfg.Pipeline > 1:
		return blocking, fmt.Errorf("distributed: Pipeline depth %d unsupported (0 disables, 1 spans one step boundary)", cfg.Pipeline)
	case cfg.Sequential && (cfg.Overlap || cfg.Pipeline > 0):
		return blocking, fmt.Errorf("distributed: Overlap and Pipeline schedule the rank-parallel engine (Sequential=false)")
	case cfg.Overlap || cfg.Pipeline > 0:
		return pipelined, nil
	}
	return blocking, nil
}

// PipelineActive reports whether the cross-step pipelined schedule is in
// effect (Config.Pipeline > 0 or Config.Overlap).
func (tr *Trainer) PipelineActive() bool { return tr.sched == pipelined }

// PipelineFallback returns why a trainer asked to pipeline runs another
// schedule. It is always "": no trainer New builds can conflict across the
// step boundary (see the Independence note above), so Config.Pipeline always
// selects the pipelined schedule. It stays for callers that report it.
func (tr *Trainer) PipelineFallback() string { return "" }

// stepRanks is the rank-parallel executor: five phases, each with one
// goroutine per rank. The SPTT phases run on the engine's communicator
// families; the dense, exchange and update phases share the trainer's
// persistent world group. Phase walls always bound the step, but under the
// pipelined schedule compute and communication deliberately cross them —
// the sharper lens is PhaseTimes.ExposedComm/HiddenComm.
func (tr *Trainer) stepRanks(batches []*data.Batch, inputs []*sptt.Inputs) StepResult {
	cfg, pipe := tr.cfg, tr.sched == pipelined
	lap := tr.phaseClock()
	invG := 1 / float32(cfg.G)
	carried := tr.carried
	tr.carried = nil
	var crossE, crossH atomic.Int64 // carried work's completion, summed over ranks
	denseEmb := make([]*tensor.Tensor, cfg.G)
	dDenseEmb := make([]*tensor.Tensor, cfg.G)
	inflight := make([][]pendingBucket, cfg.G)
	// The plan lists the buckets final after BackwardTop first.
	nTop := 0
	for nTop < len(tr.buckets) && !tr.buckets[nTop].afterBottom {
		nTop++
	}

	// launch posts rank g's reduction of the given buckets, in plan order
	// (the wire format). Blocking finishes each before posting the next;
	// pipelined marks the handles carried and parks them for the next step.
	launch := func(g int, bs []gradBucket) {
		for _, b := range bs {
			pb := tr.launchBucket(g, b)
			if !pipe {
				tr.finishBucket(g, pb, invG)
				continue
			}
			pb.h.Carry()
			inflight[g] = append(inflight[g], pb)
		}
	}
	// crossStep runs fn, rank g's share of the work the last step carried
	// over, and adds the world group's exposed/hidden delta around it to
	// the cross-step sub-attribution.
	crossStep := func(g int, fn func()) {
		e, h := tr.timed(g, fn)
		crossE.Add(int64(e))
		crossH.Add(int64(h))
	}
	bottomForward := func(g int) {
		if carried != nil {
			crossStep(g, func() { tr.awaitWeights(g, bottomGroup) })
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
		if pipe {
			launch(g, tr.buckets[nTop:])
		}
	}

	// The buckets the last step carried land first, and their owners step:
	// the weight gathers then fly under the whole SPTT forward.
	if carried != nil {
		comm.Run(tr.world, func(c *comm.Comm) {
			g := c.Rank()
			crossStep(g, func() { tr.finishCarried(g, carried[g], invG) })
		})
	}

	comms := sptt.Comms{CrossHost: cfg.Compression.Embedding, Net: tr.net}
	if pipe {
		comms.Overlap, comms.BwdOverlap = bottomForward, bottomBackward
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
		if !pipe {
			bottomForward(g)
		}
		if carried != nil {
			crossStep(g, func() { tr.awaitWeights(g, topGroup) })
		}
		logits := m.ForwardDenseFrom(denseEmb[g], compressed[g])
		res.PerRankLoss[g] = tr.loss[g].Forward(logits, batches[g].Labels)
		tr.charge(g, tr.topFwd)
		dCompressed[g], dDenseEmb[g] = m.BackwardTop(tr.loss[g].Backward())
		tr.charge(g, tr.topBwd)
		if pipe {
			launch(g, tr.buckets[:nTop])
		} else {
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
		if !pipe {
			launch(g, tr.buckets)
		}
		tr.scaleRank(g, sparse, invG)
	})
	gradEx := lap()

	// Updates: each rank steps the over-arch rows it owns and gathers them
	// (blocking; pipelined defers both to the next step's head), and steps
	// its own tower module; each owner rank applies sparse updates to its
	// canonical tables through the embedding tier.
	comm.Run(tr.world, func(c *comm.Comm) {
		g := c.Rank()
		if !pipe {
			tr.stepOwned(g)
			tr.awaitWeights(g, bottomGroup)
			tr.awaitWeights(g, topGroup)
		}
		tr.tmOpts[g].Step(tr.modules[g].Params())
		tr.applySparse(g, sparse)
	})
	update := lap()

	if pipe {
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
// boundary and runs its deferred Adam step on the rows it owns, which posts
// the weight gathers. Each gather stays in flight until the first forward
// that reads its rows.
func (tr *Trainer) finishCarried(g int, pbs []pendingBucket, invG float32) {
	for _, pb := range pbs {
		tr.finishBucket(g, pb, invG)
	}
	tr.stepOwned(g)
}

// timed runs fn and returns rank g's world-group exposed/hidden deltas
// around it (safe to read: the counters belong to this rank, and the
// caller is one of its goroutines, sequenced by the previous Run joins).
func (tr *Trainer) timed(g int, fn func()) (exposed, hidden time.Duration) {
	c := tr.world[g]
	e0, h0 := c.Times()
	fn()
	e1, h1 := c.Times()
	return e1 - e0, h1 - h0
}

// Drain finishes whatever the last step carried across its boundary — each
// rank's in-flight gradient buckets, the owners' deferred Adam step and
// both weight gathers — then asserts the comm runtime is fully drained. The
// drain's exposure is folded into the cumulative stats (without counting a
// step); all of it is cross-step time, since the world group has done
// nothing else since the last step ended. Idempotent, and a no-op when
// nothing is carried; Close calls it, and tests call it before comparing
// final parameters.
func (tr *Trainer) Drain() {
	carried := tr.carried
	if carried == nil {
		return
	}
	tr.carried = nil
	invG := 1 / float32(tr.cfg.G)
	comm.Run(tr.world, func(c *comm.Comm) {
		g := c.Rank()
		tr.finishCarried(g, carried[g], invG)
		tr.awaitWeights(g, bottomGroup)
		tr.awaitWeights(g, topGroup)
	})
	comm.AssertDrained(tr.world)

	exposed, hidden := tr.commTimes(&sptt.SPTTState{})
	tr.stats.Phases.ExposedComm += exposed
	tr.stats.Phases.HiddenComm += hidden
	tr.stats.Phases.CrossStepExposed += exposed
	tr.stats.Phases.CrossStepHidden += hidden
}
