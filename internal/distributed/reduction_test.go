package distributed

import (
	"fmt"
	"math"
	"runtime"
	"runtime/debug"
	"testing"

	"dmt/internal/comm"
	"dmt/internal/data"
	"dmt/internal/quant"
	"dmt/internal/tensor"
)

// seedGradients overwrites every rank's over-arch gradients with values the
// codec treats specially — NaN, ±Inf, −0, a half-subnormal, finite
// magnitudes past the half range — scattered among gradient-sized noise,
// different on every rank and round.
func seedGradients(tr *Trainer, round int) {
	special := []float32{
		float32(math.NaN()), float32(math.Inf(1)), float32(math.Inf(-1)),
		math.Float32frombits(0x80000000), 3e-6, -3e-6, 70000, -1e10,
	}
	for g := range tr.replicas {
		r := tensor.NewRNG(uint64(1000*round + g))
		for _, p := range tr.replicas[g].OverArchParams() {
			d := p.Grad.Data()
			copy(d, tensor.RandUniform(r, -1e-4, 1e-4, len(d)).Data())
			for k := 0; k < len(d); k += 7 {
				d[(k+g)%len(d)] = special[(k/7+g+round)%len(special)]
			}
		}
	}
}

// runBuckets drives one round of the over-arch reduction exactly as the
// trainer's schedule places it: launch and finish bucket by bucket
// (blocking), launch all then finish all (overlapped), or launch carried in
// one Run and finish in the next (pipelined).
func runBuckets(tr *Trainer) {
	invG := 1 / float32(tr.cfg.G)
	inflight := make([][]pendingBucket, tr.cfg.G)
	finish := func(g int) {
		params := tr.replicas[g].OverArchParams()
		for _, pb := range inflight[g] {
			tr.finishBucket(params, pb, invG)
		}
		inflight[g] = inflight[g][:0]
	}
	comm.Run(tr.world, func(c *comm.Comm) {
		g := c.Rank()
		params := tr.replicas[g].OverArchParams()
		for _, b := range tr.buckets {
			pb := tr.launchBucket(g, params, b)
			if tr.sched.finish == finishNextStep {
				pb.carry()
			}
			inflight[g] = append(inflight[g], pb)
			if tr.sched.finish == finishAtLaunch {
				finish(g)
			}
		}
		if tr.sched.finish == finishAfterBackward {
			finish(g)
		}
	})
	if tr.sched.finish == finishNextStep {
		comm.Run(tr.world, func(c *comm.Comm) { finish(c.Rank()) })
	}
}

// sameBits compares by float32 bit pattern, so −0 and +0 differ, with one
// class folded: any NaN equals any NaN. Which operand's sign and payload a
// NaN + NaN keeps is the compiler's choice of operand order (the race
// build's differs from the plain one's), not the reduction's.
func sameBits(a, b *tensor.Tensor) bool {
	for i, v := range a.Data() {
		w := b.Data()[i]
		if math.Float32bits(v) != math.Float32bits(w) && (v == v || w == w) {
			return false
		}
	}
	return a.Len() == b.Len()
}

// checkReduction runs one round on tr and compares every rank's reduced
// gradients and refreshed residuals with the per-receiver reference:
// DecodeInto(payload of rank 0), AddTo(payloads of ranks 1…G−1), scale —
// computed from payloads the test encodes itself.
func checkReduction(t *testing.T, name string, tr *Trainer, s quant.Scheme) {
	t.Helper()
	G := tr.cfg.G
	nParams := len(tr.replicas[0].OverArchParams())
	wantGrad := make([]*tensor.Tensor, nParams)
	wantRes := make([][]*tensor.Tensor, G)
	for g := range wantRes {
		wantRes[g] = make([]*tensor.Tensor, nParams)
		for pi, p := range tr.replicas[g].OverArchParams() {
			wantRes[g][pi] = tr.Residual(g, pi).Clone()
			e := quant.EncodeResidual(s, p.Grad, wantRes[g][pi])
			if g == 0 {
				wantGrad[pi] = tensor.New(p.Grad.Shape()...)
				e.DecodeInto(wantGrad[pi])
			} else {
				e.AddTo(wantGrad[pi])
			}
			e.Release()
		}
	}
	for _, w := range wantGrad {
		tensor.ScaleInPlace(w, 1/float32(G))
	}
	runBuckets(tr)
	for g := 0; g < G; g++ {
		for pi, p := range tr.replicas[g].OverArchParams() {
			if !sameBits(p.Grad, wantGrad[pi]) {
				t.Fatalf("%s: rank %d gradient %s differs from the per-receiver decode", name, g, p.Name)
			}
			if !sameBits(tr.Residual(g, pi), wantRes[g][pi]) {
				t.Fatalf("%s: rank %d residual %s differs", name, g, p.Name)
			}
		}
	}
}

// TestBucketReductionMatchesPerReceiverDecode pins the sender-side decode:
// whatever the schedule, world size and wire scheme, every rank's reduced
// gradient and refreshed residual carry the bits of the per-receiver
// reference. Two rounds per trainer, so the second reuses the arenas and
// starts from non-zero residuals; both GOMAXPROCS settings, so `make race`
// sees the cross-rank image reads with and without real parallelism.
func TestBucketReductionMatchesPerReceiverDecode(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	schedules := []struct {
		name string
		set  func(*Config)
	}{
		{"blocking", func(*Config) {}},
		{"overlapped", func(c *Config) { c.Overlap = true }},
		{"pipelined", func(c *Config) { c.Pipeline = 1 }},
	}
	for _, procs := range []int{1, 2} {
		runtime.GOMAXPROCS(procs)
		for _, setup := range []func(uint64) (Config, *data.Generator){testSetup, latencySetup} { // G = 4, G = 8
			for _, s := range []quant.Scheme{quant.FP16, quant.INT8, quant.INT4} {
				for _, sc := range schedules {
					cfg, _ := setup(3)
					cfg.Compression.Gradient = s
					sc.set(&cfg)
					tr, err := New(cfg)
					if err != nil {
						t.Fatal(err)
					}
					name := fmt.Sprintf("procs=%d G=%d %s %s", procs, cfg.G, s, sc.name)
					if sc.name == "pipelined" && !tr.PipelineActive() {
						t.Fatalf("%s: pipeline not active", name)
					}
					for round := 0; round < 2; round++ {
						seedGradients(tr, round)
						checkReduction(t, fmt.Sprintf("%s round %d", name, round), tr, s)
					}
					tr.Close()
				}
			}
		}
	}
}

// TestCompressedBucketCycleAllocs pins the steady-state cost of one
// compressed launch+finish cycle over all G ranks and buckets at the raw
// wire's: what both allocate is the runtime's — the Run goroutines and, per
// bucket, the boxed message, the pending handle, its resolver and the [src]
// result slice (198 objects at G = 8 with two buckets; 310 on either wire
// while the message was boxed once per destination). The codec, the arena
// images and the reduction add nothing. The collector is held off while
// measuring: a GC cycle empties sync.Pool, and the re-encodes it forces
// would count the heap the earlier tests left behind, not the cycle.
func TestCompressedBucketCycleAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("under the race detector sync.Pool drops payloads at random, so encodes allocate")
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	cycle := func(s quant.Scheme) float64 {
		cfg, _ := latencySetup(3)
		cfg.Compression.Gradient = s
		cfg.Overlap = true
		tr, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer tr.Close()
		seedGradients(tr, 0)
		runBuckets(tr) // warm the payload pool
		return testing.AllocsPerRun(20, func() { runBuckets(tr) })
	}
	raw := cycle(quant.None)
	for _, s := range []quant.Scheme{quant.FP16, quant.INT8, quant.INT4} {
		if got := cycle(s); got > raw {
			t.Errorf("%s launch+finish cycle allocates %.1f objects, the raw wire %.1f", s, got, raw)
		}
	}
}
