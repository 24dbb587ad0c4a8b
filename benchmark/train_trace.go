package main

import (
	"sort"
	"sync"
	"time"

	"dmt/internal/comm"
	"dmt/internal/data"
	"dmt/internal/distributed"
	"dmt/internal/embeddings"
	"dmt/internal/nn"
	"dmt/internal/quant"
	"dmt/internal/sptt"
	"dmt/internal/tensor"
)

// The layers inside Trainer.Step cannot be wrapped from outside, so a
// traced training run is a layer replay: next to each "distributed.step"
// span it drives, on an identically built and warmed second trainer and the
// same step's inputs, the exported entry points a blocking step is made of
// — SPTT forward, dense forward/backward, SPTT backward, the bucketed
// gradient exchange, the optimizers, the tier update — as children of one
// "replay.step" span. The replay follows its own trajectory (its optimizer
// state is its own); what it shares with the real step is the shapes, the
// inputs and the code.

// decoyOffset moves the stand-alone lookup round onto samples no step uses:
// looking the step's own IDs up a second time would hit the cache every
// time and measure nothing.
const decoyOffset = 1 << 20

type replayer struct {
	sh      trainShape
	tr      *distributed.Trainer
	world   []*comm.Comm // instant-delivery group: the exchange's wall cost, not its modeled time
	modules []sptt.TowerModule
	over    []*nn.Adam
	tm      []*nn.Adam
	loss    []*nn.BCEWithLogits
	gemms   []gemmCase
	inter   *tensor.Tensor // (B, F, D) interaction input
}

// gemmCase is one Linear layer's three GEMMs at the local batch.
type gemmCase struct {
	x, dy, w *tensor.Tensor // (B, In), (B, Out), (Out, In)
}

func (g gemmCase) flops() float64 {
	return 2 * float64(g.x.Dim(0)) * float64(g.w.Dim(0)) * float64(g.w.Dim(1))
}

func gemmCases(batch int, layers []*nn.Linear) []gemmCase {
	rng := tensor.NewRNG(5)
	var out []gemmCase
	for _, l := range layers {
		out = append(out, gemmCase{
			x:  tensor.RandN(rng, 1, batch, l.In),
			dy: tensor.RandN(rng, 1, batch, l.Out),
			w:  l.W.Value,
		})
	}
	return out
}

func newReplayer(sh trainShape, tr *distributed.Trainer) *replayer {
	r := &replayer{sh: sh, tr: tr, world: comm.NewGroup(trainG)}
	for g := 0; g < trainG; g++ {
		r.modules = append(r.modules, tr.Replica(g).TMs[g/trainL])
		r.over = append(r.over, nn.NewAdam(1e-3))
		r.tm = append(r.tm, nn.NewAdam(1e-3))
		r.loss = append(r.loss, &nn.BCEWithLogits{})
	}
	m := tr.Replica(0)
	r.gemms = gemmCases(trainBatch, append(append([]*nn.Linear(nil), m.Bottom.Layers...), m.Top.Layers...))
	derived := 1
	for _, t := range m.TMs {
		derived += t.OutDim() / sh.d
	}
	r.inter = tensor.RandN(tensor.NewRNG(6), 1, trainBatch, derived, sh.d)
	return r
}

// perRank runs fn(g) for every rank on its own goroutine, the way a
// rank-parallel phase does.
func perRank(fn func(g int)) {
	var wg sync.WaitGroup
	for g := 0; g < trainG; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			fn(g)
		}(g)
	}
	wg.Wait()
}

func spttInputs(batches []*data.Batch) []*sptt.Inputs {
	inputs := make([]*sptt.Inputs, len(batches))
	for g, b := range batches {
		inputs[g] = &sptt.Inputs{Indices: b.Indices, Offsets: b.Offsets}
	}
	return inputs
}

// lookupRound issues one Lookup per rank for the bags batches hold of the
// rank's owned tables — the request step (b) of the SPTT forward makes.
func (r *replayer) lookupRound(batches []*data.Batch) {
	cfg := r.tr.Engine().Cfg
	perRank(func(g int) {
		var reqs []embeddings.Req
		for _, f := range cfg.OwnedFeatures(g) {
			var ids []int32
			for _, b := range batches {
				ids = append(ids, b.Indices[f]...)
			}
			reqs = append(reqs, embeddings.Req{Table: f, IDs: ids})
		}
		r.tr.Tier().Client(g).Lookup(reqs)
	})
}

// exchange is rank c's share of the over-arch gradient reduction, bucket by
// bucket as the trainer plans them: fused encode, one batched AllGather,
// fused decode-accumulate (or the raw fp32 path when the wire is
// uncompressed).
func (r *replayer) exchange(rec *recorder, parent int, op int64, c *comm.Comm) {
	g := c.Rank()
	params := r.tr.Replica(g).OverArchParams()
	for _, bucket := range r.tr.Buckets() {
		if r.sh.wire == quant.None {
			vs := make([]*tensor.Tensor, len(bucket))
			for i, pi := range bucket {
				vs[i] = params[pi].Grad.Clone()
			}
			parts := c.IAllGatherBatch(vs).Wait()
			for i, pi := range bucket {
				gd := params[pi].Grad
				gd.CopyFrom(parts[0][i])
				for src := 1; src < len(parts); src++ {
					tensor.AddInPlace(gd, parts[src][i])
				}
			}
			continue
		}
		encs := make([]*quant.Encoded, len(bucket))
		enc := rec.begin("quant.encode", parent, op)
		for i, pi := range bucket {
			encs[i] = quant.EncodeResidual(r.sh.wire, params[pi].Grad, r.tr.Residual(g, pi))
		}
		rec.end(enc)
		parts := c.IAllGatherBatchEnc(encs).Wait()
		dec := rec.begin("quant.decode", parent, op)
		for i, pi := range bucket {
			gd := params[pi].Grad
			parts[0][i].DecodeInto(gd)
			for src := 1; src < len(parts); src++ {
				parts[src][i].AddTo(gd)
			}
		}
		rec.end(dec)
		for _, es := range parts {
			for _, e := range es {
				e.Release()
			}
		}
	}
}

// step replays one blocking step from exported entry points.
func (r *replayer) step(rec *recorder, gen *data.Generator, stepIdx int, batches []*data.Batch) {
	op := int64(stepIdx)
	eng := r.tr.Engine()
	root := rec.begin("replay.step", -1, op)
	defer rec.end(root)

	rec.in("embeddings.lookup", root, op, func(int) {
		r.lookupRound(stepBatches(gen, stepIdx+decoyOffset))
	})

	var compressed []*tensor.Tensor
	var st *sptt.SPTTState
	rec.in("sptt.forward", root, op, func(int) {
		compressed, st = eng.SPTTForwardCompressed(spttInputs(batches), r.modules,
			sptt.Options{Comms: sptt.Comms{CrossHost: r.sh.wire, Net: r.tr.Network()}})
	})

	rec.in("models.dense_forward", root, op, func(int) {
		perRank(func(g int) {
			m := r.tr.Replica(g)
			for _, p := range m.DenseParams() {
				p.ZeroGrad()
			}
			r.loss[g].Forward(m.ForwardDense(batches[g].Dense, compressed[g]), batches[g].Labels)
		})
	})

	dCompressed := make([]*tensor.Tensor, trainG)
	rec.in("models.dense_backward", root, op, func(int) {
		perRank(func(g int) {
			m := r.tr.Replica(g)
			dC, dDense := m.BackwardTop(r.loss[g].Backward())
			m.BackwardBottom(dDense)
			dCompressed[g] = dC
		})
	})

	var sparse map[int]*nn.SparseGrad
	rec.in("sptt.backward", root, op, func(int) { sparse = eng.SPTTBackward(st, dCompressed) })

	rec.in("comm.grad_exchange", root, op, func(id int) {
		comm.Run(r.world, func(c *comm.Comm) { r.exchange(rec, id, op, c) })
	})

	rec.in("nn.adam_step", root, op, func(int) {
		perRank(func(g int) {
			r.over[g].Step(r.tr.Replica(g).OverArchParams())
			r.tm[g].Step(r.modules[g].Params())
		})
	})

	rec.in("embeddings.update", root, op, func(int) {
		perRank(func(g int) {
			var ups []embeddings.Upd
			for _, f := range eng.Cfg.OwnedFeatures(g) {
				if sg := sparse[f]; sg != nil && len(sg.Rows) > 0 {
					ups = append(ups, embeddings.Upd{Table: f, Rows: sg.Rows, GradRows: sg.Grads})
				}
			}
			r.tr.Tier().Client(g).Update(ups)
		})
	})

	// The step's GEMMs once more on their own, every rank's share in
	// parallel as in the step: the kernels' cost apart from the layers
	// around them.
	rec.in("tensor.matmul_bt", root, op, func(int) {
		perRank(func(int) {
			for _, c := range r.gemms {
				tensor.MatMulBT(c.x, c.w)
			}
		})
	})
	rec.in("tensor.matmul", root, op, func(int) {
		perRank(func(int) {
			for _, c := range r.gemms {
				tensor.MatMul(c.dy, c.w)
			}
		})
	})
	rec.in("tensor.matmul_at", root, op, func(int) {
		perRank(func(int) {
			for _, c := range r.gemms {
				tensor.MatMulAT(c.dy, c.x)
			}
		})
	})
	rec.in("tensor.pairwise_dot", root, op, func(int) {
		perRank(func(int) { tensor.BatchedPairwiseDot(r.inter) })
	})
}

// traceTrain is the traced window of a training run.
func traceTrain(rc runConfig, rep *report, sh trainShape, sz trainSizes, rig *trainRig, steps int) error {
	rec := rc.rec
	twin, err := sh.setUp(rc.seed, sz.warmup)
	if err != nil {
		return err
	}
	defer twin.tr.Close()
	twin.tr.Drain() // the replay drives the twin by hand from here on
	rp := newReplayer(sh, twin.tr)

	var (
		stepMS  []float64
		secs    float64
		cpu     float64
		mallocs uint64
	)
	base := sz.warmup + steps
	for s := 0; s < sz.traceSteps; s++ {
		batches := stepBatches(rig.gen, base+s)
		m0 := readMem()
		c0, t0 := cpuSeconds(), time.Now()
		id := rec.begin("distributed.step", -1, int64(base+s))
		_, err := safeStep(rig.tr, batches)
		if s == sz.traceSteps-1 {
			rig.tr.Drain()
		}
		rec.end(id)
		el := time.Since(t0)
		cpu += cpuSeconds() - c0
		mallocs += readMem().mallocs - m0.mallocs
		rep.op(1)
		if err != nil {
			rep.fail("traced step %d: %v", s, err)
			return nil
		}
		stepMS = append(stepMS, el.Seconds()*1e3)
		secs += el.Seconds()
		rp.step(rec, rig.gen, base+s, batches)
	}

	n := float64(sz.traceSteps)
	sort.Float64s(stepMS)
	rep.set("distributed.step_ms_p50", percentile(stepMS, 0.50))
	rep.set("distributed.step_ms_p99", percentile(stepMS, 0.99))
	rep.set("distributed.cpu_ms_per_step", cpu*1e3/n)
	rep.set("distributed.allocs_per_step", float64(mallocs)/n)
	tracedRate := n * trainG * trainBatch / secs
	rep.set("bench.tracing_overhead_share", 1-tracedRate/rep.values["throughput_per_s"])

	dur, _, count := rec.totals()
	per := func(name string) time.Duration {
		if count[name] == 0 {
			return 0
		}
		return dur[name] / time.Duration(count[name])
	}
	rep.set("sptt.forward_ms", ms(per("sptt.forward")))
	rep.set("sptt.backward_ms", ms(per("sptt.backward")))
	rep.set("embeddings.lookup_us", us(per("embeddings.lookup")))
	rep.set("embeddings.update_us", us(per("embeddings.update")))
	rep.set("models.dense_forward_ms", ms(per("models.dense_forward")))
	rep.set("models.dense_backward_ms", ms(per("models.dense_backward")))
	rep.set("nn.adam_step_us", us(per("nn.adam_step")))

	var flops float64
	for _, c := range rp.gemms {
		flops += c.flops() * trainG
	}
	nsPerFlop := func(name string) float64 { return float64(per(name).Nanoseconds()) / flops }
	rep.set("tensor.matmul_ns_per_flop", nsPerFlop("tensor.matmul"))
	rep.set("tensor.matmul_bt_ns_per_flop", nsPerFlop("tensor.matmul_bt"))
	rep.set("tensor.matmul_at_ns_per_flop", nsPerFlop("tensor.matmul_at"))
	rep.set("tensor.pairwise_dot_us", us(per("tensor.pairwise_dot")))

	// The layer contrast: how much of a real step's wall time the replayed
	// embedding-side spans, and the kernel- and codec-side spans, amount to.
	// The quant spans run on eight rank goroutines at once; their sum over
	// ranks is divided back to one rank's share.
	stepTotal := float64(dur["distributed.step"])
	rep.set("bench.span_share_sptt_embeddings",
		float64(dur["sptt.forward"]+dur["sptt.backward"]+dur["embeddings.lookup"]+dur["embeddings.update"])/stepTotal)
	rep.set("bench.span_share_tensor_quant",
		(float64(dur["tensor.matmul"]+dur["tensor.matmul_bt"]+dur["tensor.matmul_at"]+dur["tensor.pairwise_dot"])+
			float64(dur["quant.encode"]+dur["quant.decode"])/trainG)/stepTotal)

	trainLayers(rec, rep, rp)
	return nil
}
