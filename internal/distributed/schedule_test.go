package distributed

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"testing"

	"dmt/internal/comm"
	"dmt/internal/data"
	"dmt/internal/models"
	"dmt/internal/netsim"
	"dmt/internal/quant"
	"dmt/internal/tensor"
	"dmt/internal/topology"
)

// TestPipelineGoldenTrajectoryBitwise is the acceptance regression for the
// cross-step schedule: at G=4 and G=8, fp32 and fp16 (compression with
// error feedback on), the pipelined engine must reproduce the sequential
// golden loss bit patterns exactly, and after Drain its parameters and
// tables must be in sync across replicas.
func TestPipelineGoldenTrajectoryBitwise(t *testing.T) {
	const (
		l          = 2
		localBatch = 6
		steps      = 5
		features   = 8
	)
	for _, g := range []int{4, 8} {
		for _, s := range []quant.Scheme{quant.None, quant.FP16} {
			name := fmt.Sprintf("G=%d/%s", g, s)
			t.Run(name, func(t *testing.T) {
				want, ok := goldenLossBits[name]
				if !ok {
					t.Fatalf("no golden bits for %s", name)
				}
				dcfg := data.CriteoLike(1)
				dcfg.Cardinalities = make([]int, features)
				dcfg.HotSizes = make([]int, features)
				for i := range dcfg.Cardinalities {
					dcfg.Cardinalities[i] = 32
					dcfg.HotSizes[i] = 1
				}
				dcfg.NumGroups = g / l
				gen := data.NewGenerator(dcfg)

				tr, err := New(Config{
					G: g, L: l, LocalBatch: localBatch,
					Model: models.DMTDLRMConfig{
						Schema: dcfg.Schema, N: 8,
						Towers: goldenTowers(g),
						C:      1, P: 0, D: 4,
						BottomMLP: []int{16, 4},
						TopMLP:    []int{16},
						Seed:      99,
					},
					DenseLR: 1e-3, SparseLR: 1e-2, Seed: 7,
					Pipeline:    1,
					Compression: Compression{Gradient: s, Embedding: s},
				})
				if err != nil {
					t.Fatal(err)
				}
				defer tr.Close()
				if !tr.PipelineActive() {
					t.Fatal("pipeline not active")
				}
				for step := 0; step < steps; step++ {
					locals := make([]*data.Batch, g)
					for r := 0; r < g; r++ {
						locals[r] = gen.Batch(step*g*localBatch+r*localBatch, localBatch)
					}
					res := tr.Step(locals)
					if got := math.Float64bits(res.MeanLoss); got != want[step] {
						t.Fatalf("step %d: loss %v (bits %#x), golden bits %#x — pipelined trajectory diverged from golden capture",
							step, res.MeanLoss, got, want[step])
					}
				}
				tr.Drain()
				if err := tr.ReplicasInSync(); err != nil {
					t.Fatal(err)
				}
			})
		}
	}
}

// TestPipelineMatchesSequentialBitwise: the cross-step engine — raw wire,
// fp16 error-feedback wire, and a one-parameter-per-bucket plan (maximum
// carried handles) — must follow the sequential reference bit for bit,
// including final parameters and tables after Drain.
func TestPipelineMatchesSequentialBitwise(t *testing.T) {
	cfg, gen := testSetup(7)
	pipeCfg := cfg
	pipeCfg.Pipeline = 1
	tinyBuckets := pipeCfg
	tinyBuckets.BucketBytes = 1
	runBitwiseEngines(t, cfg, gen, map[string]Config{
		"pipelined":           pipeCfg,
		"pipelined/1B-bucket": tinyBuckets,
	}, 5)

	// fp16 wire with error feedback: the sequential reference must run the
	// same compression so the trajectories are comparable.
	cfg16, gen16 := testSetup(7)
	cfg16.Compression = Compression{Gradient: quant.FP16, Embedding: quant.FP16}
	pipe16 := cfg16
	pipe16.Pipeline = 1
	runBitwiseEngines(t, cfg16, gen16, map[string]Config{"pipelined/fp16": pipe16}, 5)
}

// TestPipelineDrainMidTrainingContinues: draining between steps (not just
// at Close) must leave the trainer in a resumable state on the same
// trajectory — the next step simply starts with no carried work.
func TestPipelineDrainMidTrainingContinues(t *testing.T) {
	cfg, gen := testSetup(11)
	pipeCfg := cfg
	pipeCfg.Pipeline = 1

	seqCfg := cfg
	seqCfg.Sequential = true
	seq, err := New(seqCfg)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := New(pipeCfg)
	if err != nil {
		t.Fatal(err)
	}
	for step := 0; step < 4; step++ {
		_, locals := splitGlobalBatch(gen, step, cfg.G, cfg.LocalBatch)
		rs := seq.Step(locals)
		rp := tr.Step(locals)
		if rp.MeanLoss != rs.MeanLoss {
			t.Fatalf("step %d: pipelined loss %v != sequential %v", step, rp.MeanLoss, rs.MeanLoss)
		}
		if step == 1 {
			tr.Drain()
			tr.Drain() // idempotent
		}
	}
	seq.Drain()
	tr.Drain()
	for g := 0; g < cfg.G; g++ {
		pp := tr.Replica(g).DenseParams()
		sp := seq.Replica(g).DenseParams()
		for pi := range pp {
			if !pp[pi].Value.Equal(sp[pi].Value) {
				t.Fatalf("rank %d param %s differs after mid-training drain", g, pp[pi].Name)
			}
		}
	}
}

// TestResolveSchedule: the Config selectors map onto the two schedules —
// Overlap is an alias of Pipeline: 1, so setting both is no conflict —
// neither combines with Sequential, and only depth 0/1 is supported; New
// surfaces every rejection.
func TestResolveSchedule(t *testing.T) {
	for _, tc := range []struct {
		name string
		mut  func(*Config)
		want schedule
		bad  bool
	}{
		{"default", func(c *Config) {}, blocking, false},
		{"sequential", func(c *Config) { c.Sequential = true }, blocking, false},
		{"overlap", func(c *Config) { c.Overlap = true }, pipelined, false},
		{"pipeline", func(c *Config) { c.Pipeline = 1 }, pipelined, false},
		{"pipeline+overlap", func(c *Config) { c.Pipeline = 1; c.Overlap = true }, pipelined, false},
		{"overlap+sequential", func(c *Config) { c.Overlap = true; c.Sequential = true }, blocking, true},
		{"pipeline+sequential", func(c *Config) { c.Pipeline = 1; c.Sequential = true }, blocking, true},
		{"depth 2", func(c *Config) { c.Pipeline = 2 }, blocking, true},
		{"negative depth", func(c *Config) { c.Pipeline = -1 }, blocking, true},
	} {
		cfg, _ := testSetup(16)
		tc.mut(&cfg)
		got, err := resolveSchedule(cfg)
		if (err != nil) != tc.bad || got != tc.want {
			t.Fatalf("%s: resolveSchedule = %v, %v; want %v, error=%v", tc.name, got, err, tc.want, tc.bad)
		}
		if _, err := New(cfg); (err != nil) != tc.bad {
			t.Fatalf("%s: New error = %v, want error=%v", tc.name, err, tc.bad)
		}
	}
}

// TestPipelineConflictDetection: New pipelines unconditionally because no
// trainer it builds can conflict across a step boundary — on every rank the
// tower-module parameters (read by the next step's forward) share no tensor
// with the over-arch parameters (updated behind the boundary).
func TestPipelineConflictDetection(t *testing.T) {
	cfg, _ := testSetup(17)
	cfg.Pipeline = 1
	tr, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	if !tr.PipelineActive() || tr.PipelineFallback() != "" {
		t.Fatalf("Pipeline: 1 trainer: active=%v fallback=%q", tr.PipelineActive(), tr.PipelineFallback())
	}
	for g := 0; g < cfg.G; g++ {
		over := make(map[*tensor.Tensor]string)
		for _, p := range tr.replicas[g].OverArchParams() {
			over[p.Value] = p.Name
		}
		for _, p := range tr.modules[g].Params() {
			if name, ok := over[p.Value]; ok {
				t.Fatalf("rank %d: tower-module param %s aliases over-arch param %s", g, p.Name, name)
			}
		}
	}
}

// TestPipelineRaceHammer drives the cross-step engine at G=8 with
// one-parameter buckets (maximum carried handles crossing each boundary)
// and fp16 wire while a monitor goroutine polls the atomic traffic
// counters mid-step — the interleaving `go test -race` needs to certify
// the carried-handle mailbox traffic and the stats plumbing.
func TestPipelineRaceHammer(t *testing.T) {
	cfg, gen := testSetup(19)
	cfg.G, cfg.L = 8, 4
	cfg.Model.Towers = [][]int{{0, 1, 2, 3}, {4, 5, 6, 7}}
	cfg.Pipeline = 1
	cfg.BucketBytes = 1
	cfg.Compression = Compression{Gradient: quant.FP16, Embedding: quant.FP16}
	tr, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !tr.PipelineActive() {
		t.Fatal("pipeline not active")
	}

	var stop atomic.Bool
	var wg sync.WaitGroup
	var polls int64
	wg.Add(1)
	go func() {
		defer wg.Done()
		for !stop.Load() {
			// The per-pair traffic counters are atomic precisely so
			// monitors can read them mid-Run; sum them to keep the reads
			// from being optimized away.
			var total int64
			for _, row := range comm.TrafficMatrix(tr.world) {
				for _, b := range row {
					total += b
				}
			}
			if total < 0 {
				panic("negative traffic")
			}
			polls++
		}
	}()
	for step := 0; step < 4; step++ {
		_, locals := splitGlobalBatch(gen, step, cfg.G, cfg.LocalBatch)
		res := tr.Step(locals)
		if res.MeanLoss <= 0 {
			t.Fatalf("step %d: implausible loss %v", step, res.MeanLoss)
		}
	}
	stop.Store(true)
	wg.Wait()
	tr.Drain()
	if err := tr.ReplicasInSync(); err != nil {
		t.Fatal(err)
	}
	if st := tr.Stats(); st.Steps != 4 {
		t.Fatalf("stats counted %d steps, want 4", st.Steps)
	}
}

// TestPipelineCrossStepAccounting: in latency mode the cross-step fields
// must populate once a boundary has been crossed and stay within the
// exposed/hidden totals they sub-attribute.
func TestPipelineCrossStepAccounting(t *testing.T) {
	cfg, gen := latencySetup(1)
	cfg.Pipeline = 1
	cfg.Compression = Compression{Gradient: quant.FP16, Embedding: quant.FP16}
	cfg.Fabric = netsim.New(topology.A100)
	tr, _ := runSteps(t, cfg, gen, 3)
	tr.Drain()
	st := tr.Stats()
	if st.Phases.CrossStepExposed+st.Phases.CrossStepHidden <= 0 {
		t.Fatalf("no cross-step time recorded after 3 pipelined steps: %+v", st.Phases)
	}
	if st.Phases.CrossStepExposed > st.Phases.ExposedComm {
		t.Fatalf("cross-step exposed %v exceeds total exposed %v", st.Phases.CrossStepExposed, st.Phases.ExposedComm)
	}
	if st.Phases.CrossStepHidden > st.Phases.HiddenComm {
		t.Fatalf("cross-step hidden %v exceeds total hidden %v", st.Phases.CrossStepHidden, st.Phases.HiddenComm)
	}
}
