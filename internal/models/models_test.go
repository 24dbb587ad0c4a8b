package models

import (
	"fmt"
	"math"
	"testing"

	"dmt/internal/data"
	"dmt/internal/nn"
	"dmt/internal/tensor"
	"dmt/internal/towers"
)

// tinyConfig returns a fast synthetic workload for model tests: 12 sparse
// features in 4 groups with small vocabularies, so every table row is seen
// hundreds of times within a short training run.
func tinyConfig(seed uint64) data.Config {
	cfg := data.CriteoLike(seed)
	cfg.Cardinalities = append([]int(nil), cfg.Cardinalities[:12]...)
	cfg.HotSizes = append([]int(nil), cfg.HotSizes[:12]...)
	for i := range cfg.Cardinalities {
		cfg.Cardinalities[i] = 64
	}
	cfg.NumGroups = 4
	return cfg
}

func tinyTrainConfig(steps int) TrainConfig {
	c := DefaultTrainConfig()
	c.Steps = steps
	c.BatchSize = 128
	c.EvalSamples = 4096
	return c
}

func tinyDLRM(schema data.Schema, seed uint64) DLRMConfig {
	return DLRMConfig{Schema: schema, N: 8, BottomMLP: []int{16, 8}, TopMLP: []int{32, 16}, Seed: seed}
}

func tinyDCN(schema data.Schema, seed uint64) DCNConfig {
	return DCNConfig{Schema: schema, N: 8, CrossLayers: 2, DeepMLP: []int{32, 16}, Seed: seed}
}

func tinyDMTDLRM(schema data.Schema, towersList [][]int, seed uint64) DMTDLRMConfig {
	return DMTDLRMConfig{Schema: schema, N: 8, Towers: towersList, C: 1, P: 0, D: 4,
		BottomMLP: []int{16, 4}, TopMLP: []int{32, 16}, Seed: seed}
}

func TestDLRMForwardShapesAndDeterminism(t *testing.T) {
	cfg := tinyConfig(1)
	gen := data.NewGenerator(cfg)
	m1 := NewDLRM(tinyDLRM(cfg.Schema, 7))
	m2 := NewDLRM(tinyDLRM(cfg.Schema, 7))
	b := gen.Batch(0, 32)
	l1 := m1.Forward(b)
	l2 := m2.Forward(b)
	if l1.Len() != 32 {
		t.Fatalf("logit shape %v", l1.Shape())
	}
	if !l1.Equal(l2) {
		t.Fatal("same seed must give identical forward")
	}
	m3 := NewDLRM(tinyDLRM(cfg.Schema, 8))
	if m3.Forward(b).Equal(l1) {
		t.Fatal("different seeds should differ")
	}
}

func TestModelGradientsNumerically(t *testing.T) {
	// End-to-end gradient check through each model: perturb one dense
	// parameter and one embedding row and compare the loss delta with the
	// analytic gradient.
	cfg := tinyConfig(3)
	gen := data.NewGenerator(cfg)
	b := gen.Batch(0, 16)
	naive := RoundRobinTowers(3, cfg.NumSparse())

	builders := map[string]func() Model{
		"dlrm":     func() Model { return NewDLRM(tinyDLRM(cfg.Schema, 5)) },
		"dcn":      func() Model { return NewDCN(tinyDCN(cfg.Schema, 5)) },
		"dmt-dlrm": func() Model { return NewDMTDLRM(tinyDMTDLRM(cfg.Schema, naive, 5)) },
		"dmt-dcn": func() Model {
			return NewDMTDCN(DMTDCNConfig{Schema: cfg.Schema, N: 8, Towers: naive, D: 4,
				TMCrossLayers: 1, CrossLayers: 1, DeepMLP: []int{16}, Seed: 5})
		},
	}
	for name, mk := range builders {
		m := mk()
		loss := &nn.BCEWithLogits{}
		lossFn := func() float64 { return loss.Forward(m.Forward(b), b.Labels) }

		for _, p := range m.DenseParams() {
			p.ZeroGrad()
		}
		lossFn()
		m.Backward(loss.Backward())
		sg := m.TakeSparseGrads()

		// Check three dense parameters spread across modules.
		params := m.DenseParams()
		probe := []int{0, len(params) / 2, len(params) - 1}
		const eps = 1e-2
		for _, pi := range probe {
			p := params[pi]
			idx := p.Value.Len() / 2
			orig := p.Value.Data()[idx]
			p.Value.Data()[idx] = orig + eps
			up := lossFn()
			p.Value.Data()[idx] = orig - eps
			down := lossFn()
			p.Value.Data()[idx] = orig
			num := (up - down) / (2 * eps)
			got := float64(p.Grad.Data()[idx])
			if math.Abs(num-got) > 5e-3*math.Max(1, math.Abs(num)) {
				t.Fatalf("%s: dense %s grad: numerical %v vs analytic %v", name, p.Name, num, got)
			}
		}

		// Check one touched embedding row of table 0.
		if len(sg[0].Rows) == 0 {
			t.Fatalf("%s: no sparse grads on table 0", name)
		}
		e := m.Embeddings()[0]
		row := sg[0].Rows[0]
		orig := e.Table.At(row, 0)
		e.Table.Set(orig+eps, row, 0)
		up := lossFn()
		e.Table.Set(orig-eps, row, 0)
		down := lossFn()
		e.Table.Set(orig, row, 0)
		num := (up - down) / (2 * eps)
		got := float64(sg[0].Grads.At(0, 0))
		if math.Abs(num-got) > 5e-3*math.Max(1, math.Abs(num)) {
			t.Fatalf("%s: embedding grad: numerical %v vs analytic %v", name, num, got)
		}
	}
}

func TestTrainingImprovesAUC(t *testing.T) {
	cfg := tinyConfig(11)
	gen := data.NewGenerator(cfg)
	m := NewDLRM(tinyDLRM(cfg.Schema, 13))
	tc := tinyTrainConfig(250)

	before := Evaluate(m, gen, tc.EvalStart, tc.EvalSamples, tc.BatchSize)
	res := Train(m, gen, tc)
	if res.AUC < before.AUC+0.05 {
		t.Fatalf("training barely helped: %v -> %v", before.AUC, res.AUC)
	}
	if res.AUC < 0.60 {
		t.Fatalf("trained AUC %v too low for the planted signal", res.AUC)
	}
	// Loss should trend down.
	head := res.Losses[0]
	tail := res.FinalTrainLoss
	if tail >= head {
		t.Fatalf("train loss did not decrease: %v -> %v", head, tail)
	}
}

func TestDCNTrains(t *testing.T) {
	cfg := tinyConfig(17)
	gen := data.NewGenerator(cfg)
	m := NewDCN(tinyDCN(cfg.Schema, 19))
	res := Train(m, gen, tinyTrainConfig(200))
	if res.AUC < 0.60 {
		t.Fatalf("DCN AUC %v", res.AUC)
	}
}

func TestDMTDLRMTrainsComparablyToBaseline(t *testing.T) {
	// Table 4's shape: DMT with ground-truth-aligned towers should be on
	// par with the baseline (within a loose band for this tiny setup).
	cfg := tinyConfig(23)
	gen := data.NewGenerator(cfg)
	tc := tinyTrainConfig(250)

	base := Train(NewDLRM(tinyDLRM(cfg.Schema, 29)), gen, tc)
	dmt := Train(NewDMTDLRM(tinyDMTDLRM(cfg.Schema, gen.TrueGroups(), 29)), gen, tc)
	if dmt.AUC < base.AUC-0.03 {
		t.Fatalf("DMT AUC %v far below baseline %v", dmt.AUC, base.AUC)
	}
}

// TestRoundRobinTowersPaperExample pins §5.2.3's naive strided assignment:
// 8 towers over 26 features.
func TestRoundRobinTowersPaperExample(t *testing.T) {
	got := fmt.Sprint(RoundRobinTowers(8, 26))
	want := "[[0 8 16 24] [1 9 17 25] [2 10 18] [3 11 19] [4 12 20] [5 13 21] [6 14 22] [7 15 23]]"
	if got != want {
		t.Fatalf("RoundRobinTowers(8, 26) = %s, want %s", got, want)
	}
}

func TestDMTReducesFlops(t *testing.T) {
	cfg := tinyConfig(31)
	naive := RoundRobinTowers(4, cfg.NumSparse())
	base := NewDLRM(tinyDLRM(cfg.Schema, 1))
	dmt := NewDMTDLRM(tinyDMTDLRM(cfg.Schema, naive, 1))
	if dmt.FlopsPerSample() >= base.FlopsPerSample() {
		t.Fatalf("DMT flops %v should be below baseline %v (Table 4 shape)",
			dmt.FlopsPerSample(), base.FlopsPerSample())
	}
	dcnBase := NewDCN(tinyDCN(cfg.Schema, 1))
	dcnDMT := NewDMTDCN(DMTDCNConfig{Schema: cfg.Schema, N: 8, Towers: naive, D: 4,
		TMCrossLayers: 1, CrossLayers: 2, DeepMLP: []int{32, 16}, Seed: 1})
	if dcnDMT.FlopsPerSample() >= dcnBase.FlopsPerSample() {
		t.Fatalf("DMT-DCN flops %v should be below baseline %v",
			dcnDMT.FlopsPerSample(), dcnBase.FlopsPerSample())
	}
}

func TestCompressionRatioMatchesTable5Semantics(t *testing.T) {
	cfg := tinyConfig(37)
	naive := RoundRobinTowers(4, cfg.NumSparse())
	// c=1, p=0: CR = N/D.
	mcfg := tinyDMTDLRM(cfg.Schema, naive, 1) // N=8, D=4
	ratio := func(m *DMTDLRM) float64 {
		outs := make([]int, len(m.TMs))
		for t, tm := range m.TMs {
			outs[t] = tm.OutDim()
		}
		return towers.CompressionRatio(cfg.NumSparse(), mcfg.N, outs)
	}
	if cr := ratio(NewDMTDLRM(mcfg)); math.Abs(cr-2) > 1e-9 {
		t.Fatalf("CR = %v, want 2", cr)
	}
	mcfg.D = 2
	mcfg.BottomMLP = []int{16, 2}
	if cr := ratio(NewDMTDLRM(mcfg)); math.Abs(cr-4) > 1e-9 {
		t.Fatalf("CR = %v, want 4", cr)
	}
}

func TestParamCountsAreConsistent(t *testing.T) {
	cfg := tinyConfig(41)
	m := NewDLRM(tinyDLRM(cfg.Schema, 1))
	var tables int64
	for _, c := range cfg.Cardinalities {
		tables += int64(c * 8)
	}
	if m.ParamCount() <= tables {
		t.Fatal("param count must include dense parameters")
	}
	if m.ParamCount()-tables != int64(nn.CountParams(m.Bottom, m.Top)) {
		t.Fatal("param count should be dense + tables exactly")
	}
}

func TestBadPartitionPanics(t *testing.T) {
	cfg := tinyConfig(43)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for incomplete partition")
		}
	}()
	NewDMTDLRM(tinyDMTDLRM(cfg.Schema, [][]int{{0, 1}}, 1))
}

func TestEvalLeakageGuard(t *testing.T) {
	cfg := tinyConfig(47)
	gen := data.NewGenerator(cfg)
	tc := tinyTrainConfig(10)
	tc.EvalStart = 100 // overlaps the training range
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for train/eval overlap")
		}
	}()
	Train(NewDLRM(tinyDLRM(cfg.Schema, 1)), gen, tc)
}

func TestRepeatedAUCIsDeterministic(t *testing.T) {
	cfg := tinyConfig(53)
	gen := data.NewGenerator(cfg)
	tc := tinyTrainConfig(60)
	mk := func(seed uint64) Model { return NewDLRM(tinyDLRM(cfg.Schema, seed)) }
	a := RepeatedAUC(mk, gen, tc, 2, 100)
	b := RepeatedAUC(mk, gen, tc, 2, 100)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("repeated runs with same seeds must reproduce exactly")
		}
	}
	if a[0] == a[1] {
		t.Fatal("different run seeds should differ")
	}
}

func TestGatherFeatureEmbeddings(t *testing.T) {
	cfg := tinyConfig(59)
	gen := data.NewGenerator(cfg)
	m := NewDLRM(tinyDLRM(cfg.Schema, 61))
	r := GatherFeatureEmbeddings(m, gen, 0, 64)
	if r.Dim(0) != 64 || r.Dim(1) != cfg.NumSparse() || r.Dim(2) != 8 {
		t.Fatalf("embedding probe shape %v", r.Shape())
	}
	if tensor.FromSlice(r.Data(), r.Len()).L2Norm() == 0 {
		t.Fatal("probe should be non-zero")
	}
}
