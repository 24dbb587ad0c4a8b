package models

import (
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"dmt/internal/data"
	"dmt/internal/quant"
)

// trainGoldenModels are the model families the training golden runs: both
// baselines (DLRM also with fp16 embedding communication), DMT-DLRM with
// per-feature (c) and flat (p) tower ensembles, and DMT-DCN, whose CrossNet
// towers and global CrossNet the distributed goldens never reach.
func trainGoldenModels(schema data.Schema) []struct {
	name string
	m    Model
} {
	nf := schema.NumSparse()
	fp16 := DefaultDLRMConfig(schema, 21)
	fp16.EmbCommQuant = quant.FP16
	return []struct {
		name string
		m    Model
	}{
		{"dlrm", NewDLRM(DefaultDLRMConfig(schema, 21))},
		{"dlrm-fp16", NewDLRM(fp16)},
		{"dcn", NewDCN(DCNConfig{Schema: schema, N: 8, CrossLayers: 2, DeepMLP: []int{32, 16}, Seed: 22})},
		{"dmt-dlrm-c", NewDMTDLRM(DefaultDMTDLRMConfig(schema, RoundRobinTowers(4, nf), 23))},
		{"dmt-dlrm-p", NewDMTDLRM(ServingDMTDLRMConfig(schema, RoundRobinTowers(4, nf), 24))},
		{"dmt-dcn", NewDMTDCN(DMTDCNConfig{Schema: schema, N: 8, Towers: RoundRobinTowers(4, nf),
			D: 4, TMCrossLayers: 2, CrossLayers: 2, DeepMLP: []int{32, 16}, Seed: 25})},
	}
}

// bitsHash is FNV-1a over the float32 bits of v.
func bitsHash(v []float32) string {
	h := fnv.New64a()
	var b [4]byte
	for _, x := range v {
		u := math.Float32bits(x)
		b[0], b[1], b[2], b[3] = byte(u), byte(u>>8), byte(u>>16), byte(u>>24)
		h.Write(b[:])
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// trainGoldenRun trains every golden model for 5 steps of batch 64 through
// Train on CriteoLike and on the multi-hot XLRMMini, and renders, per model:
// the float64 bits of each step's loss and of the held-out AUC and log
// loss, a hash of every dense parameter's bits, and a hash of every
// embedding table's bits (touched rows and all).
func trainGoldenRun() []string {
	var lines []string
	for _, ds := range []struct {
		name string
		cfg  data.Config
	}{{"criteo", data.CriteoLike(3)}, {"xlrm", data.XLRMMini(3)}} {
		gen := data.NewGenerator(ds.cfg)
		tc := DefaultTrainConfig()
		tc.Steps, tc.BatchSize, tc.EvalStart, tc.EvalSamples = 5, 64, 1<<20, 256
		for _, gm := range trainGoldenModels(ds.cfg.Schema) {
			res := Train(gm.m, gen, tc)
			key := ds.name + " " + gm.name
			var sb strings.Builder
			fmt.Fprintf(&sb, "%s loss", key)
			for _, l := range res.Losses {
				fmt.Fprintf(&sb, " %016x", math.Float64bits(l))
			}
			lines = append(lines, sb.String(),
				fmt.Sprintf("%s eval %016x %016x", key, math.Float64bits(res.AUC), math.Float64bits(res.LogLoss)))
			for _, p := range gm.m.DenseParams() {
				lines = append(lines, fmt.Sprintf("%s %s %s", key, p.Name, bitsHash(p.Value.Data())))
			}
			for _, e := range gm.m.Embeddings() {
				lines = append(lines, fmt.Sprintf("%s %s %s", key, e.Name, bitsHash(e.Table.Data())))
			}
		}
	}
	return lines
}

// TestTrainGolden reproduces the bits of 5 single-process training steps of
// every model family against testdata/train.golden: losses, held-out
// metrics, dense parameters and embedding tables.
func TestTrainGolden(t *testing.T) {
	lines := trainGoldenRun()
	path := filepath.Join("testdata", "train.golden")
	if *update {
		if err := os.WriteFile(path, []byte(strings.Join(lines, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run go test -run TestTrainGolden -update to create it)", err)
	}
	want := strings.Split(strings.TrimSuffix(string(raw), "\n"), "\n")
	if len(want) != len(lines) {
		t.Fatalf("golden has %d lines, the run %d", len(want), len(lines))
	}
	for i, got := range lines {
		if got != want[i] {
			t.Errorf("line %d differs from the golden\n got: %s\nwant: %s", i+1, got, want[i])
		}
	}
}
