package models

import (
	"math"
	"testing"

	"dmt/internal/data"
	"dmt/internal/nn"
	"dmt/internal/tensor"
)

// tapeModels returns a constructor per model family on schema; every call
// builds the same model, so one training pass can be compared with another.
func tapeModels(schema data.Schema) map[string]func() Model {
	nf := schema.NumSparse()
	return map[string]func() Model{
		"dlrm": func() Model { return NewDLRM(DefaultDLRMConfig(schema, 31)) },
		"dcn": func() Model {
			return NewDCN(DCNConfig{Schema: schema, N: 8, CrossLayers: 2, DeepMLP: []int{32, 16}, Seed: 32})
		},
		"dmt-dlrm": func() Model {
			cfg := DefaultDMTDLRMConfig(schema, RoundRobinTowers(4, nf), 33)
			cfg.P = 1 // both projections, so the tower output Concats
			return NewDMTDLRM(cfg)
		},
		"dmt-dcn": func() Model {
			return NewDMTDCN(DMTDCNConfig{Schema: schema, N: 8, Towers: RoundRobinTowers(4, nf),
				D: 4, TMCrossLayers: 2, CrossLayers: 2, DeepMLP: []int{32, 16}, Seed: 34})
		},
	}
}

// trainPass runs Forward, BCE and Backward on m, calling between between
// the forward and the backward, and returns the bits of every dense
// gradient and sparse gradient.
func trainPass(m Model, b *data.Batch, between func()) []uint32 {
	for _, p := range m.DenseParams() {
		p.ZeroGrad()
	}
	loss := &nn.BCEWithLogits{}
	loss.Forward(m.Forward(b), b.Labels)
	between()
	m.Backward(loss.Backward())
	var bits []uint32
	for _, p := range m.DenseParams() {
		for _, v := range p.Grad.Data() {
			bits = append(bits, math.Float32bits(v))
		}
	}
	for _, g := range m.TakeSparseGrads() {
		for _, r := range g.Rows {
			bits = append(bits, uint32(r))
		}
		for _, v := range g.Grads.Data() {
			bits = append(bits, math.Float32bits(v))
		}
	}
	return bits
}

// TestEvaluateLeavesTrainingPassIntact evaluates between a training
// Forward and its Backward: every gradient must keep the bits of the pass
// with nothing in between, because Evaluate runs the non-recording path.
func TestEvaluateLeavesTrainingPassIntact(t *testing.T) {
	cfg := data.CriteoLike(5)
	gen := data.NewGenerator(cfg)
	b := gen.Batch(0, 32)
	for name, mk := range tapeModels(cfg.Schema) {
		want := trainPass(mk(), b, func() {})
		m := mk()
		got := trainPass(m, b, func() {
			Evaluate(m, gen, 1<<20, 96, 32)
			GatherFeatureEmbeddings(m, gen, 1<<21, 16)
		})
		if len(got) != len(want) {
			t.Fatalf("%s: %d gradient words after evaluating mid-pass, want %d", name, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%s: gradient word %d is %08x after evaluating mid-pass, want %08x", name, i, got[i], want[i])
			}
		}
	}
}

// tapeOf returns a model's training tape.
func tapeOf(m Model) *nn.Tape {
	switch m := m.(type) {
	case *DLRM:
		return &m.tape
	case *DCN:
		return &m.tape
	case *DMTDLRM:
		return &m.tape
	case *DMTDCN:
		return &m.tape
	}
	panic("tapeOf: unknown model")
}

// TestForwardWithoutBackwardKeepsOnePass runs Forward 100 times with no
// Backward: the model's tape must hold one pass's records, and the
// Backward after them must empty it.
func TestForwardWithoutBackwardKeepsOnePass(t *testing.T) {
	cfg := data.CriteoLike(6)
	b := data.NewGenerator(cfg).Batch(0, 16)
	for name, mk := range tapeModels(cfg.Schema) {
		m := mk()
		m.Forward(b)
		one := tapeOf(m).Len()
		if one == 0 {
			t.Fatalf("%s: Forward recorded nothing", name)
		}
		for range 100 {
			m.Forward(b)
		}
		if n := tapeOf(m).Len(); n != one {
			t.Fatalf("%s: tape holds %d records after 100 Forwards, want one pass's %d", name, n, one)
		}
		m.Backward(tensor.New(b.Size))
		if n := tapeOf(m).Len(); n != 0 {
			t.Fatalf("%s: tape holds %d records after Backward, want 0", name, n)
		}
	}
}

// TestTrainStepAllocs pins the allocations of one single-process training
// step — Forward, BCE, Backward and TakeSparseGrads on CriteoLike at batch
// 64, DMT-DLRM on 4 round-robin towers. While every layer kept its last
// input on itself they were DMT-DLRM 508, DLRM 378 and DCN 390; one lookup
// path and the in-place ReLU took them to 400, 278 and 286, and weight and
// bias gradients added in place, with no dW or dB temporary, to 346, 248
// and 256. DMT-DLRM's training tape then took its pass from an arena, with
// the interaction reading and writing its windows in place: 207.
func TestTrainStepAllocs(t *testing.T) {
	if tensor.ArenaCheck {
		t.Skip("under arenacheck every Reset drops the arena's memory, so every pass allocates it afresh")
	}
	cfg := data.CriteoLike(1)
	b := data.NewGenerator(cfg).Batch(0, 64)
	for _, tc := range []struct {
		name  string
		m     Model
		bound float64
	}{
		{"dmt-dlrm", NewDMTDLRM(DefaultDMTDLRMConfig(cfg.Schema, RoundRobinTowers(4, cfg.Schema.NumSparse()), 1)), 207},
		{"dlrm", NewDLRM(DefaultDLRMConfig(cfg.Schema, 1)), 243},
		{"dcn", NewDCN(DCNConfig{Schema: cfg.Schema, N: 16, CrossLayers: 2, DeepMLP: []int{64, 32}, Seed: 1}), 256},
	} {
		loss := &nn.BCEWithLogits{}
		n := testing.AllocsPerRun(10, func() {
			loss.Forward(tc.m.Forward(b), b.Labels)
			tc.m.Backward(loss.Backward())
			tc.m.TakeSparseGrads()
		})
		t.Logf("%s: %v allocations a training step", tc.name, n)
		if n > tc.bound {
			t.Errorf("%s: a training step allocates %v times, want ≤ %v", tc.name, n, tc.bound)
		}
	}
}

// TestDMTDLRMParamListsAllocateNothing pins the parameter lists the
// distributed trainer reads every step at zero allocations: the model and
// its tower modules build them once, in the documented order.
func TestDMTDLRMParamListsAllocateNothing(t *testing.T) {
	cfg := data.CriteoLike(2)
	m := NewDMTDLRM(DefaultDMTDLRMConfig(cfg.Schema, RoundRobinTowers(4, cfg.Schema.NumSparse()), 1))
	if n := testing.AllocsPerRun(50, func() {
		m.DenseParams()
		m.OverArchParams()
		m.BottomParams()
		m.TMs[0].Params()
	}); n != 0 {
		t.Errorf("the parameter lists allocate %v times", n)
	}
	want := nn.CollectParams(m.Bottom, m.Top)
	for _, tm := range m.TMs {
		want = append(want, tm.Params()...)
	}
	got := m.DenseParams()
	if len(got) != len(want) || len(m.OverArchParams()) != len(m.Bottom.Params())+len(m.Top.Params()) ||
		len(m.BottomParams()) != len(m.Bottom.Params()) {
		t.Fatalf("list lengths: dense %d (want %d), over-arch %d, bottom %d", len(got), len(want), len(m.OverArchParams()), len(m.BottomParams()))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("DenseParams[%d] is %s, want %s", i, got[i].Name, want[i].Name)
		}
	}
}
