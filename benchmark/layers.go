package main

import (
	"time"

	"dmt/internal/comm"
	"dmt/internal/embeddings"
	"dmt/internal/models"
	"dmt/internal/nn"
	"dmt/internal/quant"
	"dmt/internal/tensor"
)

// Stand-alone layer measurements of the traced run: each times one exported
// entry point at the workload's own sizes, under a span, and reports the
// median call.

const layerReps = 15

// timed runs fn reps times, each under a span, and returns the median
// duration.
func timed(rec *recorder, name string, reps int, fn func()) time.Duration {
	ds := make([]float64, reps)
	for i := range ds {
		t0 := time.Now()
		rec.in(name, -1, int64(i), func(int) { fn() })
		ds[i] = float64(time.Since(t0))
	}
	return time.Duration(median(ds))
}

// timedPair is timed for two calls that must alternate (an encode and the
// decode that consumes it, a forward and its backward).
func timedPair(rec *recorder, nameA, nameB string, reps int, a, b func()) (da, db time.Duration) {
	as, bs := make([]float64, reps), make([]float64, reps)
	for i := range as {
		t0 := time.Now()
		rec.in(nameA, -1, int64(i), func(int) { a() })
		t1 := time.Now()
		rec.in(nameB, -1, int64(i), func(int) { b() })
		as[i], bs[i] = float64(t1.Sub(t0)), float64(time.Since(t1))
	}
	return time.Duration(median(as)), time.Duration(median(bs))
}

// mallocsOf counts fn's heap allocations.
func mallocsOf(fn func()) float64 {
	m0 := readMem()
	fn()
	return float64(readMem().mallocs - m0.mallocs)
}

// trainLayers measures the codec, the collectives and the tower modules at
// the training workload's sizes.
func trainLayers(rec *recorder, rep *report, rp *replayer) {
	tr := rp.tr
	params := tr.Replica(0).OverArchParams()
	bucket := tr.Buckets()[0]
	var bucketBytes float64
	for _, pi := range bucket {
		bucketBytes += 4 * float64(params[pi].Grad.Len())
	}

	// quant: one gradient bucket through the fused encode and the fused
	// decode-accumulate. Uncompressed workloads do not run the codec.
	if rp.sh.wire != quant.None {
		resid := make([]*tensor.Tensor, len(bucket))
		dst := make([]*tensor.Tensor, len(bucket))
		for i, pi := range bucket {
			resid[i] = tensor.New(params[pi].Grad.Shape()...)
			dst[i] = tensor.New(params[pi].Grad.Shape()...)
		}
		encs := make([]*quant.Encoded, len(bucket))
		encode := func() {
			for i, pi := range bucket {
				encs[i] = quant.EncodeResidual(rp.sh.wire, params[pi].Grad, resid[i])
			}
		}
		decode := func() {
			for i := range bucket {
				encs[i].AddTo(dst[i])
				encs[i].Release()
			}
		}
		enc, dec := timedPair(rec, "quant.encode_bucket", "quant.decode_bucket", layerReps, encode, decode)
		rep.set("quant.encode_gbps", bucketBytes/float64(enc.Nanoseconds()))
		rep.set("quant.decode_gbps", bucketBytes/float64(dec.Nanoseconds()))
		rep.set("quant.allocs_per_op", mallocsOf(func() { encode(); decode() }))
	}

	// comm: the bucket's batched AllGather, and an AlltoAll of tower-output
	// sized chunks, on an instant-delivery G-rank group.
	group := comm.NewGroup(trainG)
	var payload [][]*quant.Encoded // [rank][i], minted before the clock starts
	raw := make([]*tensor.Tensor, len(bucket))
	for i, pi := range bucket {
		raw[i] = params[pi].Grad
	}
	gather := func() {
		comm.Run(group, func(c *comm.Comm) {
			if rp.sh.wire == quant.None {
				c.IAllGatherBatch(raw).Wait()
				return
			}
			parts := c.IAllGatherBatchEnc(payload[c.Rank()]).Wait()
			for _, es := range parts {
				for _, e := range es {
					e.Release()
				}
			}
		})
	}
	var gatherNS []float64
	for i := 0; i < layerReps; i++ {
		if rp.sh.wire != quant.None {
			payload = make([][]*quant.Encoded, trainG)
			for g := range payload {
				for _, pi := range bucket {
					payload[g] = append(payload[g], quant.Encode(rp.sh.wire, params[pi].Grad))
				}
			}
		}
		t0 := time.Now()
		rec.in("comm.allgather_batch", -1, int64(i), func(int) { gather() })
		gatherNS = append(gatherNS, float64(time.Since(t0)))
	}
	rep.set("comm.allgather_batch_us", median(gatherNS)/1e3)

	outDim := rp.modules[0].OutDim()
	chunks := make([][]*tensor.Tensor, trainG)
	for g := range chunks {
		for d := 0; d < trainG; d++ {
			chunks[g] = append(chunks[g], tensor.New(trainBatch, outDim))
		}
	}
	rep.set("comm.alltoall_us", us(timed(rec, "comm.alltoall", layerReps, func() {
		comm.Run(group, func(c *comm.Comm) { c.AlltoAllTensors(chunks[c.Rank()]) })
	})))

	// towers: one module at the batch the SPTT dataflow hands it (the local
	// batches of the tower's T peers).
	tm := tr.Replica(0).TMs[0]
	rows := trainBatch * (trainG / trainL)
	x := tensor.RandN(tensor.NewRNG(8), 1, rows, tm.F, tm.N)
	dy := tensor.RandN(tensor.NewRNG(9), 1, rows, tm.OutDim())
	fwd, bwd := timedPair(rec, "towers.forward", "towers.backward", layerReps,
		func() { tm.Forward(x) }, func() { tm.Backward(dy) })
	rep.set("towers.forward_us", us(fwd))
	rep.set("towers.backward_us", us(bwd))
}

// serveLayers measures what the server sits on: the model forward, the
// cache, and the kernels at the model's shapes.
func serveLayers(rec *recorder, rep *report, rig *serveRig, avgBatch int) {
	model, samples := rig.model, rig.in.samples

	// models: a cache-less Predict of a full micro-batch, and of a batch the
	// size the open loop actually formed.
	full := sampleBatch(samples[:serveBatch])
	rep.set("models.predict_us_per_batch", us(timed(rec, "models.predict", layerReps*2, func() {
		model.Predict(full, models.PredictOptions{})
	})))
	rep.set("models.predict_allocs_per_batch", mallocsOf(func() { model.Predict(full, models.PredictOptions{}) }))
	if avgBatch >= 1 && avgBatch < serveBatch {
		part := sampleBatch(samples[:avgBatch])
		timed(rec, "models.predict_avg_batch", layerReps, func() { model.Predict(part, models.PredictOptions{}) })
	}

	// embeddings.Keyed at the tower cache's geometry: reads that hit, and
	// writes that insert into a full cache and evict.
	const keys = 1 << 15
	cache := embeddings.NewKeyed(serveCache, serveConfig().CacheShards)
	row := make([]float32, serveD)
	for k := 0; k < serveCache; k++ {
		cache.PutVec(k%serveTowers, uint64(k), row)
	}
	get := timed(rec, "embeddings.keyed_get", layerReps, func() {
		for k := 0; k < keys; k++ {
			cache.GetVec(k%serveTowers, uint64(k%serveCache))
		}
	})
	next := uint64(serveCache)
	put := timed(rec, "embeddings.keyed_put", layerReps, func() {
		for k := 0; k < keys; k++ {
			cache.PutVec(int(next%serveTowers), next, append([]float32(nil), row...))
			next++
		}
	})
	rep.set("embeddings.keyed_get_ns", float64(get.Nanoseconds())/keys)
	rep.set("embeddings.keyed_put_ns", float64(put.Nanoseconds())/keys)

	// tensor: the widest tower projection and the top layer, at a full
	// micro-batch, in the three GEMM forms; the interaction at its shape.
	var layers []*nn.Linear
	widest := model.TMs[0]
	for _, t := range model.TMs {
		if t.Flat.In > widest.Flat.In {
			widest = t
		}
	}
	layers = append(layers, widest.Flat)
	layers = append(layers, model.Top.Layers...)
	cases := gemmCases(serveBatch, layers)
	var flops float64
	for _, c := range cases {
		flops += c.flops()
	}
	nsPerFlop := func(name string, fn func(c gemmCase)) float64 {
		d := timed(rec, name, layerReps*2, func() {
			for _, c := range cases {
				fn(c)
			}
		})
		return float64(d.Nanoseconds()) / flops
	}
	rep.set("tensor.matmul_bt_ns_per_flop", nsPerFlop("tensor.matmul_bt", func(c gemmCase) { tensor.MatMulBT(c.x, c.w) }))
	rep.set("tensor.matmul_ns_per_flop", nsPerFlop("tensor.matmul", func(c gemmCase) { tensor.MatMul(c.dy, c.w) }))
	rep.set("tensor.matmul_at_ns_per_flop", nsPerFlop("tensor.matmul_at", func(c gemmCase) { tensor.MatMulAT(c.dy, c.x) }))
	inter := tensor.RandN(tensor.NewRNG(6), 1, serveBatch, serveTowers+1, serveD)
	rep.set("tensor.pairwise_dot_us", us(timed(rec, "tensor.pairwise_dot", layerReps*2, func() { tensor.BatchedPairwiseDot(inter) })))
}
