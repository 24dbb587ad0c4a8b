package distributed

import (
	"testing"
	"time"

	"dmt/internal/data"
	"dmt/internal/models"
	"dmt/internal/netsim"
	"dmt/internal/quant"
	"dmt/internal/topology"
)

// latencySetup is testSetup at G=8 (4 hosts of 2) — big enough that the
// over-arch bucket schedule and the SPTT peer families all carry traffic.
func latencySetup(seed uint64) (Config, *data.Generator) {
	dcfg := data.CriteoLike(seed)
	dcfg.Cardinalities = make([]int, 8)
	dcfg.HotSizes = make([]int, 8)
	for i := range dcfg.Cardinalities {
		dcfg.Cardinalities[i] = 32
		dcfg.HotSizes[i] = 1
	}
	dcfg.NumGroups = 4
	gen := data.NewGenerator(dcfg)

	towers := [][]int{{0, 1}, {2, 3}, {4, 5}, {6, 7}}
	mcfg := models.DMTDLRMConfig{
		Schema: dcfg.Schema, N: 8, Towers: towers,
		C: 1, P: 0, D: 4,
		BottomMLP: []int{16, 4}, TopMLP: []int{16},
		Seed: 99,
	}
	// LocalBatch is sized so the modeled dense compute (elems × batch over
	// the generation's effective TFLOPs) is at least nanoseconds — tiny toy
	// models truncate to 0ns below that.
	return Config{
		G: 8, L: 2, LocalBatch: 32,
		Model:    mcfg,
		DenseLR:  1e-3,
		SparseLR: 1e-2,
		Seed:     7,
	}, gen
}

// runSteps trains `steps` steps and returns the per-step mean losses.
func runSteps(t *testing.T, cfg Config, gen *data.Generator, steps int) (*Trainer, []float64) {
	t.Helper()
	tr, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	losses := make([]float64, steps)
	for step := 0; step < steps; step++ {
		batches := make([]*data.Batch, cfg.G)
		for r := 0; r < cfg.G; r++ {
			batches[r] = gen.Batch(step*cfg.G*cfg.LocalBatch+r*cfg.LocalBatch, cfg.LocalBatch)
		}
		losses[step] = tr.Step(batches).MeanLoss
	}
	return tr, losses
}

// TestLatencyTrajectoryMatchesGolden: simulated latency changes timing,
// never values — every latency-mode engine follows the fabric-free
// sequential trajectory bit for bit, with and without wire compression.
func TestLatencyTrajectoryMatchesGolden(t *testing.T) {
	const steps = 3
	for _, compress := range []quant.Scheme{quant.None, quant.FP16} {
		cfg, gen := latencySetup(1)
		cfg.Sequential = true
		cfg.Compression = Compression{Gradient: compress, Embedding: compress}
		golden, goldenLoss := runSteps(t, cfg, gen, steps)

		for _, mode := range []string{"sequential", "rank-parallel", "pipeline"} {
			cfg, gen := latencySetup(1)
			cfg.Sequential = mode == "sequential"
			if mode == "pipeline" {
				cfg.Pipeline = 1
			}
			cfg.Compression = Compression{Gradient: compress, Embedding: compress}
			cfg.Fabric = netsim.New(topology.A100)
			tr, losses := runSteps(t, cfg, gen, steps)
			tr.Drain() // completes the pipelined tail; no-op for the rest

			for s := range losses {
				if losses[s] != goldenLoss[s] {
					t.Fatalf("%s/%s step %d: latency-mode loss %v != golden %v",
						mode, compress, s, losses[s], goldenLoss[s])
				}
			}
			gp := golden.Replica(0).OverArchParams()
			for pi, p := range tr.Replica(0).OverArchParams() {
				if !p.Value.Equal(gp[pi].Value) {
					t.Fatalf("%s/%s: over-arch %s diverged from golden", mode, compress, p.Name)
				}
			}
			if err := tr.ReplicasInSync(); err != nil {
				t.Fatalf("%s/%s: %v", mode, compress, err)
			}
			if tr.Stats().Phases.ExposedComm <= 0 {
				t.Fatalf("%s/%s: latency mode should model nonzero exposed comm", mode, compress)
			}
		}
	}
}

// TestLatencyDeterministicPhaseTimes: two identical latency-mode runs agree
// bit for bit on PhaseTimes, the Sim component breakdown, and the loss
// trajectory — the virtual clock never reads the wall.
func TestLatencyDeterministicPhaseTimes(t *testing.T) {
	run := func() (Stats, []float64) {
		cfg, gen := latencySetup(1)
		cfg.Pipeline = 1
		cfg.Compression = Compression{Gradient: quant.FP16, Embedding: quant.FP16}
		cfg.Fabric = netsim.New(topology.A100)
		tr, losses := runSteps(t, cfg, gen, 3)
		tr.Drain()
		return tr.Stats(), losses
	}
	s1, l1 := run()
	s2, l2 := run()
	if s1.Phases != s2.Phases {
		t.Fatalf("PhaseTimes diverged across identical runs:\n%+v\n%+v", s1.Phases, s2.Phases)
	}
	if s1.Sim != s2.Sim {
		t.Fatalf("Sim breakdown diverged across identical runs:\n%+v\n%+v", s1.Sim, s2.Sim)
	}
	for s := range l1 {
		if l1[s] != l2[s] {
			t.Fatalf("step %d: loss diverged %v vs %v", s, l1[s], l2[s])
		}
	}
	if s1.Sim.DenseFwd <= 0 || s1.Phases.ExposedComm <= 0 {
		t.Fatal("latency mode should model nonzero compute and exposed comm")
	}
}

// TestLatencyOverlapReducesExposed: under the netsim cost model the
// pipelined schedule, drained so its deferred tail is paid, must expose
// strictly less modeled communication than the blocking rank-parallel
// engine at the same scheme, and the fp16 wire must expose strictly less
// than fp32 under the same schedule (wire bytes drive delay).
func TestLatencyOverlapReducesExposed(t *testing.T) {
	exposed := func(pipeline bool, s quant.Scheme) time.Duration {
		cfg, gen := latencySetup(1)
		if pipeline {
			cfg.Pipeline = 1
		}
		cfg.Compression = Compression{Gradient: s, Embedding: s}
		cfg.Fabric = netsim.New(topology.A100)
		tr, _ := runSteps(t, cfg, gen, 2)
		tr.Drain()
		return tr.Stats().Phases.ExposedComm
	}
	blockFP32 := exposed(false, quant.None)
	blockFP16 := exposed(false, quant.FP16)
	overFP32 := exposed(true, quant.None)
	overFP16 := exposed(true, quant.FP16)
	if overFP32 >= blockFP32 {
		t.Errorf("pipelining should reduce modeled exposed comm: %v vs blocking %v (fp32)", overFP32, blockFP32)
	}
	if overFP16 >= blockFP16 {
		t.Errorf("pipelining should reduce modeled exposed comm: %v vs blocking %v (fp16)", overFP16, blockFP16)
	}
	if blockFP16 >= blockFP32 {
		t.Errorf("fp16 wire should reduce modeled exposed comm: %v vs fp32 %v (blocking)", blockFP16, blockFP32)
	}
	if overFP16 >= blockFP32 {
		t.Errorf("the acceptance pair: pipeline/fp16 %v should beat blocking/fp32 %v", overFP16, blockFP32)
	}
}

// TestHiddenNeverExceedsWall is the interval-union regression: with many
// small buckets in flight at once (G=8, tiny BucketBytes), the per-rank
// hidden time is a union of overlapping windows and must stay at or below
// the virtual wall time the steps took — the old per-handle sum exceeded
// it.
func TestHiddenNeverExceedsWall(t *testing.T) {
	cfg, gen := latencySetup(1)
	cfg.Pipeline = 1
	cfg.BucketBytes = 64 // one parameter per bucket: maximally concurrent handles
	cfg.Fabric = netsim.New(topology.A100)
	tr, _ := runSteps(t, cfg, gen, 3)
	tr.Drain()
	if len(tr.Buckets()) < 4 {
		t.Fatalf("setup: want >=4 buckets for concurrency, got %d", len(tr.Buckets()))
	}
	// The network's mean clock is the mean-per-rank virtual wall time.
	wall := tr.Network().Now()
	st := tr.Stats()
	if st.Phases.HiddenComm > wall {
		t.Fatalf("mean-per-rank hidden %v exceeds virtual wall %v: overlapping windows double-counted",
			st.Phases.HiddenComm, wall)
	}
	if st.Phases.HiddenComm <= 0 {
		t.Fatal("pipelined schedule should hide some communication")
	}
}
