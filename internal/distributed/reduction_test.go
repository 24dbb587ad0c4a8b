package distributed

import (
	"fmt"
	"math"
	"runtime"
	"runtime/debug"
	"testing"

	"dmt/internal/comm"
	"dmt/internal/data"
	"dmt/internal/nn"
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

// runBuckets drives one round of the over-arch reduction and update
// exactly as the trainer's schedule places it: launch and finish bucket by
// bucket (blocking), or launch carried in one Run and finish in the next
// (pipelined); then the owners' Adam step and both weight gathers.
func runBuckets(tr *Trainer) {
	invG := 1 / float32(tr.cfg.G)
	inflight := make([][]pendingBucket, tr.cfg.G)
	comm.Run(tr.world, func(c *comm.Comm) {
		g := c.Rank()
		for _, b := range tr.buckets {
			pb := tr.launchBucket(g, b)
			if tr.sched == blocking {
				tr.finishBucket(g, pb, invG)
				continue
			}
			pb.h.Carry()
			inflight[g] = append(inflight[g], pb)
		}
	})
	comm.Run(tr.world, func(c *comm.Comm) {
		g := c.Rank()
		if tr.sched == pipelined {
			tr.finishCarried(g, inflight[g], invG)
		} else {
			tr.stepOwned(g)
		}
		tr.awaitWeights(g, bottomGroup)
		tr.awaitWeights(g, topGroup)
	})
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

// reference is the whole-parameter oracle a trainer's reduction and
// update are checked against: every rank's encode of its whole gradient,
// the per-receiver decode DecodeInto(rank 0) + AddTo(ranks 1…G−1), the
// scale, and one Adam over full copies of the weights, stepped in lockstep
// with the trainer.
type reference struct {
	params []*nn.Param
	adam   *nn.Adam
}

func newReference(tr *Trainer) *reference {
	ref := &reference{adam: nn.NewAdam(tr.cfg.DenseLR)}
	for _, p := range tr.replicas[0].OverArchParams() {
		ref.params = append(ref.params, &nn.Param{Name: p.Name, Value: p.Value.Clone(), Grad: tensor.New(p.Grad.Shape()...)})
	}
	return ref
}

// checkReduction runs one round on tr and compares it with the reference,
// computed from payloads the test encodes itself: each owner's reduced
// gradient rows, every rank's refreshed residuals, and every rank's weights
// after the owners' Adam step and the gathers.
func checkReduction(t *testing.T, name string, tr *Trainer, ref *reference, s quant.Scheme) {
	t.Helper()
	G := tr.cfg.G
	wantRes := make([][]*tensor.Tensor, G)
	for g := range wantRes {
		wantRes[g] = make([]*tensor.Tensor, len(ref.params))
		for pi, p := range tr.replicas[g].OverArchParams() {
			var e *quant.Encoded
			if s == quant.None {
				e = quant.Encode(s, p.Grad)
			} else {
				wantRes[g][pi] = tr.Residual(g, pi).Clone()
				e = quant.EncodeResidual(s, p.Grad, wantRes[g][pi])
			}
			if g == 0 {
				e.DecodeInto(ref.params[pi].Grad)
			} else {
				e.AddTo(ref.params[pi].Grad)
			}
		}
	}
	for _, p := range ref.params {
		tensor.ScaleInPlace(p.Grad, 1/float32(G))
	}
	ref.adam.Step(ref.params)
	runBuckets(tr)
	for g := 0; g < G; g++ {
		params := tr.replicas[g].OverArchParams()
		for bi, b := range tr.buckets {
			for k, seg := range b.segs[g] {
				if !sameBits(tr.shards[g].views[bi][g][k].grad, seg.view(ref.params[seg.param].Grad)) {
					t.Fatalf("%s: owner %d's gradient rows [%d, %d) of %s differ from the per-receiver decode",
						name, g, seg.lo, seg.hi, params[seg.param].Name)
				}
			}
		}
		for pi, p := range params {
			if s != quant.None && !sameBits(tr.Residual(g, pi), wantRes[g][pi]) {
				t.Fatalf("%s: rank %d residual %s differs", name, g, p.Name)
			}
			if !sameBits(p.Value, ref.params[pi].Value) {
				t.Fatalf("%s: rank %d weights %s differ from the whole-parameter Adam step", name, g, p.Name)
			}
		}
	}
}

// TestBucketReductionMatchesPerReceiverDecode pins the owner-sharded
// reduction and update: whatever the schedule, world size and wire scheme,
// each owner's reduced gradient rows, every rank's refreshed residuals and
// every rank's weights after the owners' Adam step and the fp32 gathers
// carry the bits of the whole-parameter reference. Two rounds per trainer,
// so the second reuses the shards and starts from non-zero residuals and
// moments; both GOMAXPROCS settings, so `make race` sees the owners' reads
// of peers' payloads and weight rows with and without real parallelism.
func TestBucketReductionMatchesPerReceiverDecode(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	schedules := []struct {
		name string
		set  func(*Config)
	}{
		{"blocking", func(*Config) {}},
		{"pipelined", func(c *Config) { c.Pipeline = 1 }},
	}
	for _, procs := range []int{1, 2} {
		runtime.GOMAXPROCS(procs)
		for _, setup := range []func(uint64) (Config, *data.Generator){testSetup, latencySetup} { // G = 4, G = 8
			for _, s := range []quant.Scheme{quant.None, quant.FP16, quant.INT8, quant.INT4} {
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
					ref := newReference(tr)
					for round := 0; round < 2; round++ {
						seedGradients(tr, round)
						checkReduction(t, fmt.Sprintf("%s round %d", name, round), tr, ref, s)
					}
					tr.Close()
				}
			}
		}
	}
}

// TestOverArchMomentsSharded: each over-arch element has one owner, so the
// ranks' over-arch Adam instances together hold exactly two moments per
// over-arch parameter element — one copy of the optimizer state, not G.
func TestOverArchMomentsSharded(t *testing.T) {
	for _, setup := range []func(uint64) (Config, *data.Generator){testSetup, latencySetup} {
		for _, pipeline := range []int{0, 1} {
			cfg, gen := setup(5)
			cfg.Pipeline = pipeline
			tr, losses := runSteps(t, cfg, gen, 2)
			tr.Drain()
			if losses[1] <= 0 {
				t.Fatalf("implausible loss %v", losses[1])
			}
			want := 0
			for _, p := range tr.replicas[0].OverArchParams() {
				want += 2 * p.Value.Len()
			}
			got := 0
			for g := range tr.overOpts {
				got += tr.overOpts[g].StateLen()
			}
			if got != want {
				t.Fatalf("G=%d pipeline=%d: the ranks hold %d over-arch moment elements, want %d", cfg.G, pipeline, got, want)
			}
		}
	}
}

// TestCompressedBucketCycleAllocs pins the steady-state cost of one
// launch+finish+update cycle over all G ranks and buckets on every wire:
// what it allocates is the runtime's — the Run goroutines and, per bucket
// and gather, the pending handle and its resolver, and per gather its
// boxed messages and result slice. Each rank encodes into its segments' own
// payloads and receives a bucket's batches into a slice of its own, and a
// bucket's messages are pointers, so the codec, the shards and the
// reduction add nothing: 138 objects on every wire, where pooled payloads,
// boxed batches and fresh result slices cost 298 on the raw wire. The
// collector is held off while measuring, so a GC cycle cannot move the
// count; with no pool under the codec the pin holds under -race too.
func TestCompressedBucketCycleAllocs(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	cycle := func(s quant.Scheme) float64 {
		cfg, _ := latencySetup(3)
		cfg.Compression.Gradient = s
		cfg.Pipeline = 1
		tr, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer tr.Close()
		seedGradients(tr, 0)
		runBuckets(tr) // warm the owners' moments and size the payloads
		return testing.AllocsPerRun(20, func() { runBuckets(tr) })
	}
	for _, s := range []quant.Scheme{quant.None, quant.FP16, quant.INT8, quant.INT4} {
		if got := cycle(s); got > 138 {
			t.Errorf("%s launch+finish+update cycle allocates %.1f objects, want ≤ 138", s, got)
		}
	}
}
