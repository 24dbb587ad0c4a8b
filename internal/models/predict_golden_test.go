package models

import (
	"bufio"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"dmt/internal/data"
	"dmt/internal/embeddings"
)

var update = flag.Bool("update", false, "rewrite the golden files of the tests run from the current code")

// goldenSizes are the batch sizes the golden covers: a lone request, an
// open-loop micro-batch that leaves a ragged 4-row GEMM slab, and a full one.
var goldenSizes = []int{1, 5, 32}

// goldenConfig is CriteoLike with bags of one to three ids, so pooling sums
// more than one row.
func goldenConfig() data.Config {
	cfg := data.CriteoLike(4)
	cfg.HotSizes = append([]int(nil), cfg.HotSizes...)
	for i := range cfg.HotSizes {
		cfg.HotSizes[i] = 1 + i%3
	}
	return cfg
}

// goldenModels are the four model families, DMT-DLRM twice: the serving
// shape (one flat projection per tower) and a tower with both the flat and
// the per-feature projection, whose outputs Concat.
func goldenModels(schema data.Schema) []struct {
	name string
	m    Predictor
} {
	nf := schema.NumSparse()
	return []struct {
		name string
		m    Predictor
	}{
		{"dlrm", NewDLRM(DefaultDLRMConfig(schema, 11))},
		{"dcn", NewDCN(DCNConfig{Schema: schema, N: 8, CrossLayers: 2, DeepMLP: []int{32, 16}, Seed: 12})},
		{"dmt-dlrm", NewDMTDLRM(DMTDLRMConfig{Schema: schema, N: 32, Towers: RoundRobinTowers(8, nf),
			C: 0, P: 1, D: 128, BottomMLP: []int{64, 128}, TopMLP: []int{32}, Seed: 13})},
		{"dmt-dlrm-cp", NewDMTDLRM(DMTDLRMConfig{Schema: schema, N: 8, Towers: RoundRobinTowers(4, nf),
			C: 1, P: 1, D: 4, BottomMLP: []int{16, 4}, TopMLP: []int{32, 16}, Seed: 14})},
		{"dmt-dcn", NewDMTDCN(DMTDCNConfig{Schema: schema, N: 8, Towers: RoundRobinTowers(4, nf),
			D: 4, TMCrossLayers: 1, CrossLayers: 2, DeepMLP: []int{32, 16}, Seed: 15})},
	}
}

// goldenLine renders one Predict result as the golden's line format:
// model, cache mode, batch size, then each logit's float32 bits in hex.
func goldenLine(model, mode string, size int, logits []float32) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%s %s %d", model, mode, size)
	for _, v := range logits {
		fmt.Fprintf(&sb, " %08x", math.Float32bits(v))
	}
	return sb.String()
}

// goldenRun predicts every golden case: each model and size cache-less, then
// through fresh Keyed embedding and tower caches twice, cold (every lookup
// misses and stores) and warm (every lookup hits).
func goldenRun() []string {
	cfg := goldenConfig()
	gen := data.NewGenerator(cfg)
	var lines []string
	for _, gm := range goldenModels(cfg.Schema) {
		for _, size := range goldenSizes {
			b := gen.Batch(100*size, size)
			lines = append(lines, goldenLine(gm.name, "none", size, gm.m.Predict(b, PredictOptions{}).Data()))
			opt := PredictOptions{Embeddings: embeddings.NewKeyed(1<<12, 4), Towers: embeddings.NewKeyed(1<<12, 4)}
			lines = append(lines, goldenLine(gm.name, "cold", size, gm.m.Predict(b, opt).Data()))
			lines = append(lines, goldenLine(gm.name, "warm", size, gm.m.Predict(b, opt).Data()))
		}
	}
	return lines
}

func goldenPath() string { return filepath.Join("testdata", "predict.golden") }

// readGolden returns the golden's lines keyed by "model mode size".
func readGolden(t *testing.T) map[string]string {
	t.Helper()
	f, err := os.Open(goldenPath())
	if err != nil {
		t.Fatalf("%v (run go test -run TestPredictGolden -update to create it)", err)
	}
	defer f.Close()
	out := map[string]string{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.SplitN(sc.Text(), " ", 4)
		if len(fields) < 3 {
			continue
		}
		out[strings.Join(fields[:3], " ")] = sc.Text()
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return out
}

// TestPredictGolden reproduces the float32 bits of every model's Predict,
// cache-less and through cold and warm Keyed caches, at batch sizes 1, 5
// and 32, against testdata/predict.golden.
func TestPredictGolden(t *testing.T) {
	lines := goldenRun()
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath(), []byte(strings.Join(lines, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want := readGolden(t)
	if len(want) != len(lines) {
		t.Errorf("golden has %d cases, the run %d", len(want), len(lines))
	}
	for _, got := range lines {
		key := strings.Join(strings.SplitN(got, " ", 4)[:3], " ")
		if want[key] != got {
			t.Errorf("%s: Predict bits differ from the golden\n got: %s\nwant: %s", key, got, want[key])
		}
	}
}

// TestPredictArenaReuse runs every model at sizes 32, 5, 32 and 1 on one
// goroutine, so each call reuses scratch a larger or smaller batch dirtied,
// then on 4 goroutines at once through shared caches. Every result must
// equal the golden: a stale row, an unzeroed GEMM output or a scratch
// shared between concurrent calls would show as different bits.
func TestPredictArenaReuse(t *testing.T) {
	want := readGolden(t)
	cfg := goldenConfig()
	gen := data.NewGenerator(cfg)
	gms := goldenModels(cfg.Schema)
	sizes := []int{32, 5, 32, 1}
	batches := map[int]*data.Batch{}
	for _, size := range sizes {
		batches[size] = gen.Batch(100*size, size)
	}
	check := func(name string, size int, opt PredictOptions, m Predictor) error {
		got := goldenLine(name, "none", size, m.Predict(batches[size], opt).Data())
		if key := fmt.Sprintf("%s none %d", name, size); got != want[key] {
			return fmt.Errorf("%s: got %s, want %s", key, got, want[key])
		}
		return nil
	}
	for _, size := range sizes {
		for _, gm := range gms {
			if err := check(gm.name, size, PredictOptions{}, gm.m); err != nil {
				t.Fatal(err)
			}
		}
	}
	opts := make([]PredictOptions, len(gms)) // one cache pair per model, shared by the goroutines
	for i := range opts {
		opts[i] = PredictOptions{Embeddings: embeddings.NewKeyed(1<<12, 4), Towers: embeddings.NewKeyed(1<<12, 4)}
	}
	errs := make(chan error, 4)
	for g := 0; g < 4; g++ {
		go func() {
			var err error
			for i, gm := range gms {
				for _, size := range sizes {
					if err == nil {
						err = check(gm.name, size, PredictOptions{}, gm.m)
					}
					if err == nil {
						err = check(gm.name, size, opts[i], gm.m)
					}
				}
			}
			errs <- err
		}()
	}
	for g := 0; g < 4; g++ {
		if err := <-errs; err != nil {
			t.Error(err)
		}
	}
}

// TestPredictResultIsTheCallers overwrites a returned logits tensor and
// predicts again: the next answer must not change, so no result aliases
// Predict's pooled scratch.
func TestPredictResultIsTheCallers(t *testing.T) {
	cfg := goldenConfig()
	b := data.NewGenerator(cfg).Batch(0, 5)
	for _, gm := range goldenModels(cfg.Schema) {
		first := gm.m.Predict(b, PredictOptions{})
		want := goldenLine(gm.name, "none", 5, first.Data())
		for i := range first.Data() {
			first.Data()[i] = float32(math.NaN())
		}
		if got := goldenLine(gm.name, "none", 5, gm.m.Predict(b, PredictOptions{}).Data()); got != want {
			t.Errorf("%s: overwriting one result changed the next\n got: %s\nwant: %s", gm.name, got, want)
		}
	}
}
