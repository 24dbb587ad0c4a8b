package distributed

import (
	"math"
	"testing"

	"dmt/internal/data"
	"dmt/internal/models"
	"dmt/internal/nn"
	"dmt/internal/tensor"
)

// testSetup builds a small cluster (4 ranks, 2 hosts) and workload.
func testSetup(seed uint64) (Config, *data.Generator) {
	dcfg := data.CriteoLike(seed)
	dcfg.Cardinalities = make([]int, 8)
	dcfg.HotSizes = make([]int, 8)
	for i := range dcfg.Cardinalities {
		dcfg.Cardinalities[i] = 32
		dcfg.HotSizes[i] = 1
	}
	dcfg.NumGroups = 2
	gen := data.NewGenerator(dcfg)

	towers := [][]int{{0, 1, 2, 3}, {4, 5, 6, 7}}
	mcfg := models.DMTDLRMConfig{
		Schema: dcfg.Schema, N: 8, Towers: towers,
		C: 1, P: 0, D: 4,
		BottomMLP: []int{16, 4}, TopMLP: []int{16},
		Seed: 99,
	}
	return Config{
		G: 4, L: 2, LocalBatch: 6,
		Model:    mcfg,
		DenseLR:  1e-3,
		SparseLR: 1e-2,
		Seed:     7,
	}, gen
}

// splitGlobalBatch cuts a global batch into per-rank local batches.
func splitGlobalBatch(gen *data.Generator, step, g, b int) (global *data.Batch, locals []*data.Batch) {
	global = gen.Batch(step*g*b, g*b)
	for r := 0; r < g; r++ {
		locals = append(locals, gen.Batch(step*g*b+r*b, b))
	}
	return global, locals
}

// TestDistributedMatchesSingleProcess is the training-paradigm equivalence
// theorem: a distributed step over G ranks with local batch B must follow
// the same trajectory as a single-process step over the concatenated G·B
// batch, with identical optimizers.
func TestDistributedMatchesSingleProcess(t *testing.T) {
	cfg, gen := testSetup(1)
	tr, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}

	// Golden single-process model: identical seed and the SAME host-ordered
	// tower layout the trainer computed.
	goldenCfg := cfg.Model
	goldenCfg.Towers, _, _, err = func() ([][]int, []int, []int, error) {
		return towersInHostOrder([][]int{{0, 1, 2, 3}, {4, 5, 6, 7}}, 8, cfg.L)
	}()
	if err != nil {
		t.Fatal(err)
	}
	golden := models.NewDMTDLRM(goldenCfg)
	// Align golden's tables with the trainer's canonical (engine) tables.
	for f, e := range golden.Embs {
		e.Table.CopyFrom(tr.Engine().Tables[f].Table)
	}

	goldenOpt := nn.NewAdam(cfg.DenseLR)
	goldenSparse := nn.NewSparseAdam(cfg.SparseLR)
	loss := &nn.BCEWithLogits{}

	const steps = 3
	for step := 0; step < steps; step++ {
		global, locals := splitGlobalBatch(gen, step, cfg.G, cfg.LocalBatch)

		// Distributed step.
		res := tr.Step(locals)

		// Golden step.
		logits := golden.Forward(global)
		goldenLoss := loss.Forward(logits, global.Labels)
		for _, p := range golden.DenseParams() {
			p.ZeroGrad()
		}
		golden.Backward(loss.Backward())
		goldenOpt.Step(golden.DenseParams())
		for fi, g := range golden.TakeSparseGrads() {
			if g != nil && len(g.Rows) > 0 {
				goldenSparse.Step(golden.Embs[fi], g)
			}
		}

		// Loss agreement: mean of local losses == global-batch loss.
		if math.Abs(res.MeanLoss-goldenLoss) > 1e-5 {
			t.Fatalf("step %d: distributed loss %v vs golden %v", step, res.MeanLoss, goldenLoss)
		}

		// Parameter agreement after the update.
		gp := golden.OverArchParams()
		for pi, p := range tr.Replica(0).OverArchParams() {
			if !p.Value.AllClose(gp[pi].Value, 1e-4, 1e-6) {
				t.Fatalf("step %d: over-arch %s diverged by %v", step, p.Name,
					p.Value.MaxAbsDiff(gp[pi].Value))
			}
		}
		for h := 0; h < cfg.G/cfg.L; h++ {
			gtm := golden.TMs[h].Params()
			for pi, p := range tr.Replica(h * cfg.L).TMs[h].Params() {
				if !p.Value.AllClose(gtm[pi].Value, 1e-4, 1e-6) {
					t.Fatalf("step %d: TM %d param %s diverged by %v", step, h, p.Name,
						p.Value.MaxAbsDiff(gtm[pi].Value))
				}
			}
		}
		for f := range golden.Embs {
			if !tr.Engine().Tables[f].Table.AllClose(golden.Embs[f].Table, 1e-4, 1e-6) {
				t.Fatalf("step %d: table %d diverged by %v", step, f,
					tr.Engine().Tables[f].Table.MaxAbsDiff(golden.Embs[f].Table))
			}
		}
	}
}

func TestReplicasStayInSync(t *testing.T) {
	cfg, gen := testSetup(2)
	tr, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for step := 0; step < 4; step++ {
		_, locals := splitGlobalBatch(gen, step, cfg.G, cfg.LocalBatch)
		tr.Step(locals)
		if err := tr.ReplicasInSync(); err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
	}
}

func TestDistributedLossDecreases(t *testing.T) {
	cfg, gen := testSetup(3)
	cfg.LocalBatch = 16
	tr, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var first, last float64
	const steps = 30
	for step := 0; step < steps; step++ {
		_, locals := splitGlobalBatch(gen, step, cfg.G, cfg.LocalBatch)
		res := tr.Step(locals)
		if step == 0 {
			first = res.MeanLoss
		}
		last = res.MeanLoss
	}
	if last >= first {
		t.Fatalf("distributed training did not reduce loss: %v -> %v", first, last)
	}
}

// runBitwiseEngines drives the sequential reference and a set of candidate
// engine configs over the same step sequence, asserting bitwise-identical
// losses, parameters, and tables throughout.
func runBitwiseEngines(t *testing.T, cfg Config, gen *data.Generator, candidates map[string]Config, steps int) {
	t.Helper()
	seqCfg := cfg
	seqCfg.Sequential = true
	seqCfg.Overlap = false
	seq, err := New(seqCfg)
	if err != nil {
		t.Fatal(err)
	}
	engines := map[string]*Trainer{}
	for name, c := range candidates {
		tr, err := New(c)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		engines[name] = tr
	}
	for step := 0; step < steps; step++ {
		_, locals := splitGlobalBatch(gen, step, cfg.G, cfg.LocalBatch)
		rs := seq.Step(locals)
		for name, tr := range engines {
			rp := tr.Step(locals)
			if rp.MeanLoss != rs.MeanLoss {
				t.Fatalf("%s step %d: loss %v != sequential %v", name, step, rp.MeanLoss, rs.MeanLoss)
			}
			for g := 0; g < cfg.G; g++ {
				if rp.PerRankLoss[g] != rs.PerRankLoss[g] {
					t.Fatalf("%s step %d rank %d: loss %v != %v", name, step, g, rp.PerRankLoss[g], rs.PerRankLoss[g])
				}
			}
		}
	}
	// Cross-step pipelined candidates defer the last step's over-arch
	// update across the boundary; Drain completes it (no-op for the rest)
	// so the final-state comparison is apples to apples.
	seq.Drain()
	for name, tr := range engines {
		tr.Drain()
		for g := 0; g < cfg.G; g++ {
			pp := tr.Replica(g).DenseParams()
			sp := seq.Replica(g).DenseParams()
			for pi := range pp {
				if !pp[pi].Value.Equal(sp[pi].Value) {
					t.Fatalf("%s: rank %d param %s differs between engines", name, g, pp[pi].Name)
				}
			}
		}
		for f := range tr.Engine().Tables {
			if !tr.Engine().Tables[f].Table.Equal(seq.Engine().Tables[f].Table) {
				t.Fatalf("%s: table %d differs between engines", name, f)
			}
		}
	}
}

// TestParallelMatchesSequentialBitwise is the refactor's regression proof:
// the blocking rank-parallel engine and the single-goroutine reference step
// must produce bitwise-identical parameters, tables, and losses — not
// merely close ones — because the comm runtime reduces in source-rank
// order and bucketing never splits a parameter. (The pipelined schedule's
// proof is TestPipelineMatchesSequentialBitwise.)
func TestParallelMatchesSequentialBitwise(t *testing.T) {
	cfg, gen := testSetup(7)
	// A tiny bucket cap forces one parameter per bucket, exercising the
	// multi-bucket launch/wait ordering.
	tinyBuckets := cfg
	tinyBuckets.BucketBytes = 1
	runBitwiseEngines(t, cfg, gen, map[string]Config{
		"rank-parallel":           cfg,
		"rank-parallel/1B-bucket": tinyBuckets,
	}, 5)
}

// TestRankParallelStepConcurrency drives the rank-parallel step at G=8 so
// `go test -race` exercises every concurrent interaction: parallel dense
// compute, the over-arch AllReduce, concurrent tower-module scaling, and
// owner-applied sparse updates on primed optimizer state. Without a Fabric
// nothing is modeled, so under every schedule, the sequential reference
// included, the network's clock, every phase wall and every Sim field stay
// zero.
func TestRankParallelStepConcurrency(t *testing.T) {
	for _, sc := range []struct {
		name string
		set  func(*Config)
	}{
		{"sequential", func(c *Config) { c.Sequential = true }},
		{"blocking", func(*Config) {}},
		{"pipelined", func(c *Config) { c.Pipeline = 1 }},
	} {
		t.Run(sc.name, func(t *testing.T) {
			cfg, gen := testSetup(9)
			cfg.G, cfg.L = 8, 4
			cfg.Model.Towers = [][]int{{0, 1, 2, 3}, {4, 5, 6, 7}}
			sc.set(&cfg)
			tr, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer tr.Close()
			for step := 0; step < 3; step++ {
				_, locals := splitGlobalBatch(gen, step, cfg.G, cfg.LocalBatch)
				res := tr.Step(locals)
				if res.MeanLoss <= 0 {
					t.Fatalf("step %d: implausible loss %v", step, res.MeanLoss)
				}
				if err := tr.ReplicasInSync(); err != nil {
					t.Fatalf("step %d: %v", step, err)
				}
			}
			st := tr.Stats()
			if st.Steps != 3 {
				t.Fatalf("stats counted %d steps, want 3", st.Steps)
			}
			if now := tr.Network().Now(); now != 0 {
				t.Fatalf("nothing is modeled without a Fabric, yet the network's clock reads %v", now)
			}
			if st.Phases != (PhaseTimes{}) || st.Sim != (SimTimes{}) {
				t.Fatalf("nothing is modeled without a Fabric, yet phases %+v, sim %+v", st.Phases, st.Sim)
			}
			if st.EmbIntraHostBytes <= 0 || st.EmbCrossHostBytes <= 0 {
				t.Fatalf("embedding traffic not split: %+v", st)
			}
			// The over-arch AllReduce spans hosts and the tower reduction is
			// intra-host, so both gradient counters must be populated. The
			// sequential reference averages through memory instead.
			if !cfg.Sequential && (st.GradIntraHostBytes <= 0 || st.GradCrossHostBytes <= 0) {
				t.Fatalf("gradient traffic not split: %+v", st)
			}
		})
	}
}

// TestSequentialStatsCountTowerReduction: the sequential reference path
// moves dense gradients through memory, so its only gradient wire traffic
// is SPTTBackward's intra-host tower-module reduction.
func TestSequentialStatsCountTowerReduction(t *testing.T) {
	cfg, gen := testSetup(10)
	cfg.Sequential = true
	tr, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	_, locals := splitGlobalBatch(gen, 0, cfg.G, cfg.LocalBatch)
	tr.Step(locals)
	st := tr.Stats()
	if st.GradIntraHostBytes <= 0 {
		t.Fatalf("tower reduction bytes missing: %+v", st)
	}
	if st.GradCrossHostBytes != 0 {
		t.Fatalf("sequential path reported cross-host gradient bytes: %+v", st)
	}
}

func TestTowersInHostOrder(t *testing.T) {
	ordered, towerOf, rankOf, err := towersInHostOrder([][]int{{3, 0}, {1, 2}}, 4, 2)
	if err != nil {
		t.Fatal(err)
	}
	// Tower 0's features placed round-robin on ranks 0,1 -> host order is
	// rank 0's features ascending, then rank 1's.
	if len(ordered[0]) != 2 || len(ordered[1]) != 2 {
		t.Fatalf("ordered towers wrong: %v", ordered)
	}
	if towerOf[3] != 0 || towerOf[1] != 1 {
		t.Fatal("towerOf wrong")
	}
	for f, r := range rankOf {
		if r/2 != towerOf[f] {
			t.Fatal("rank not on tower host")
		}
	}
	if _, _, _, err := towersInHostOrder([][]int{{0}}, 2, 2); err == nil {
		t.Fatal("incomplete partition must error")
	}
}

func TestNewRejectsMismatchedTowers(t *testing.T) {
	cfg, _ := testSetup(4)
	cfg.Model.Towers = [][]int{{0, 1, 2, 3, 4, 5, 6, 7}} // 1 tower, 2 hosts
	if _, err := New(cfg); err == nil {
		t.Fatal("tower/host mismatch must error")
	}
}

func TestStepRejectsWrongBatchCount(t *testing.T) {
	cfg, gen := testSetup(5)
	tr, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	tr.Step([]*data.Batch{gen.Batch(0, cfg.LocalBatch)})
}

// Property-ish check: gradients flowing through the full distributed stack
// are finite and the canonical tables only move on touched rows.
func TestSparseUpdateLocality(t *testing.T) {
	cfg, gen := testSetup(6)
	tr, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	before := make([]*tensor.Tensor, len(tr.Engine().Tables))
	for f, e := range tr.Engine().Tables {
		before[f] = e.Table.Clone()
	}
	_, locals := splitGlobalBatch(gen, 0, cfg.G, cfg.LocalBatch)
	tr.Step(locals)

	// Collect touched rows per feature from the batches.
	for f, e := range tr.Engine().Tables {
		touched := map[int]bool{}
		for _, b := range locals {
			for _, ix := range b.Indices[f] {
				touched[int(ix)] = true
			}
		}
		for r := 0; r < e.Rows; r++ {
			moved := !rowsEqual(e.Table.Row(r), before[f].Row(r))
			if moved && !touched[r] {
				t.Fatalf("table %d row %d moved without being touched", f, r)
			}
		}
	}
}

func rowsEqual(a, b []float32) bool {
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
