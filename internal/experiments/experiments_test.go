package experiments

import (
	"math"
	"runtime"
	"strings"
	"testing"
	"time"

	"dmt/internal/quant"
)

func TestTable1MatchesPaper(t *testing.T) {
	rows := Table1()
	if len(rows) != 3 {
		t.Fatalf("%d generations", len(rows))
	}
	last := rows[2]
	if last.ComputeGrowth < 60 {
		t.Fatalf("compute growth %v, paper cites 60x", last.ComputeGrowth)
	}
	if last.ScaleOutGrowth > 4 {
		t.Fatalf("scale-out growth %v, paper cites 4x", last.ScaleOutGrowth)
	}
	if !strings.Contains(table1Table.render(rows), "H100") {
		t.Fatal("format must include generations")
	}
}

func TestFigure1MatchesShape(t *testing.T) {
	r := Figure1()
	compute, emb, dense := r[0], r[1], r[2]
	if math.Abs(compute.ModelPct-compute.PaperPct) > 15 {
		t.Fatalf("compute share %v too far from paper %v", compute.ModelPct, compute.PaperPct)
	}
	if math.Abs(emb.ModelPct-emb.PaperPct) > 12 {
		t.Fatalf("embedding share %v too far from paper %v", emb.ModelPct, emb.PaperPct)
	}
	if dense.ModelPct > 8 {
		t.Fatalf("dense share %v should be marginal", dense.ModelPct)
	}
	if !strings.Contains(figure1Table.render(r), "Exposed Embedding") {
		t.Fatal("format")
	}
}

func TestFigure5WithinTolerance(t *testing.T) {
	rows := Figure5()
	if len(rows) != 14 {
		t.Fatalf("%d rows, want 14", len(rows))
	}
	for _, r := range rows {
		rel := math.Abs(r.ModelBusBW-r.PaperBusBW) / r.PaperBusBW
		if rel > 0.10 {
			t.Errorf("%s@%d: %.1f vs paper %.1f", r.Collective, r.GPUs, r.ModelBusBW, r.PaperBusBW)
		}
	}
}

func TestFigure6DataParallelWins(t *testing.T) {
	r := Figure6(quant.None)
	if !r.DataParallelIsBest {
		t.Fatalf("best mesh %+v is not data parallel", r.BestMesh)
	}
	if len(r.Results) != 28 {
		t.Fatalf("%d configs, want 28", len(r.Results))
	}
}

func TestFigure10Shapes(t *testing.T) {
	rows := Figure10()
	// 2 models × (4 + 6 + 6) scales.
	if len(rows) != 32 {
		t.Fatalf("%d rows", len(rows))
	}
	byKey := map[string]float64{}
	for _, r := range rows {
		byKey[r.Model+r.Gen+itoa(r.GPUs)] = r.Speedup
		if r.Speedup < 0.8 || r.Speedup > 2.6 {
			t.Errorf("%s %s %d: speedup %v implausible", r.Model, r.Gen, r.GPUs, r.Speedup)
		}
	}
	// DLRM speedup grows from 16 to 512 GPUs (paper's §5.3.1 trend).
	if byKey["DLRMH100512"] <= byKey["DLRMH10016"] {
		t.Fatal("DLRM speedup should grow with scale")
	}
	// DCN peaks at small scale on old GPUs.
	if byKey["DCNV10016"] < 1.5 {
		t.Fatalf("DCN V100 16-GPU speedup %v, paper 1.9", byKey["DCNV10016"])
	}
	// No V100 rows beyond the cluster limit.
	for _, r := range rows {
		if r.Gen == "V100" && r.GPUs > 128 {
			t.Fatal("V100 cluster supports at most 16 hosts")
		}
	}
}

func TestFigure11TMGains(t *testing.T) {
	rows := Figure11()
	for _, r := range rows {
		if r.Speedup < 1.0 || r.Speedup > 2.2 {
			t.Errorf("TM gain %v at %s/%d out of band", r.Speedup, r.Gen, r.GPUs)
		}
	}
}

func TestFigure12Monotone(t *testing.T) {
	rows := Figure12()
	if len(rows) != 12 {
		t.Fatalf("%d rows", len(rows))
	}
	prev := map[string]float64{}
	for _, r := range rows {
		if p, ok := prev[r.Gen]; ok && r.Speedup < p {
			t.Fatalf("%s: speedup fell from %v to %v as CR grew", r.Gen, p, r.Speedup)
		}
		prev[r.Gen] = r.Speedup
	}
}

func TestFigure13Improvements(t *testing.T) {
	r := Figure13Model()
	if r.ComputeImprovement < 1.2 || r.ComputeImprovement > 1.8 {
		t.Fatalf("compute improvement %v, paper 1.4x", r.ComputeImprovement)
	}
	if r.EmbImprovement < 1.1 {
		t.Fatalf("embedding improvement %v, paper 4.6x", r.EmbImprovement)
	}
}

// mustRun returns the sweep's named run, failing the test when it has none.
func mustRun(t *testing.T, s Sweep, name string) TrainingRun {
	t.Helper()
	r := s.Run(name)
	if r.Name != name {
		t.Fatalf("sweep has no %q run: %+v", name, s.Runs)
	}
	return r
}

// TestFigure13Measured is the acceptance gate behind the measured
// component-latency table: (a) the pipelined schedule exposes strictly
// less modeled communication than the blocking one at each wire scheme,
// (b) fp16 compression exposes strictly less than fp32 under each schedule
// (wire bytes drive the delays), so the headline fp16/pipeline row beats
// fp32/blocking; (c) only the pipelined rows cross the step boundary, and
// they hide the previous step's bucket completion behind the next SPTT
// forward; (d) the trajectory is schedule-invariant. TestGoldenTables
// holds the same sweep to a GOMAXPROCS=1 rerun bit for bit.
func TestFigure13Measured(t *testing.T) {
	r := ambientSweep(t, "fig13")
	if len(r.Runs) != 4 {
		t.Fatalf("%d rows, want 4", len(r.Runs))
	}
	fp32b := mustRun(t, r, "fp32/blocking")
	fp32p := mustRun(t, r, "fp32/pipeline")
	fp16b := mustRun(t, r, "fp16/blocking")
	fp16p := mustRun(t, r, "fp16/pipeline")
	exposed := func(run TrainingRun) time.Duration { return run.Stats.Phases.ExposedComm }
	// (a) pipelining reduces modeled exposed comm vs blocking.
	if exposed(fp32p) >= exposed(fp32b) {
		t.Errorf("fp32: pipeline exposed %v, blocking %v — pipelining must reduce it", exposed(fp32p), exposed(fp32b))
	}
	if exposed(fp16p) >= exposed(fp16b) {
		t.Errorf("fp16: pipeline exposed %v, blocking %v — pipelining must reduce it", exposed(fp16p), exposed(fp16b))
	}
	// (b) fp16 wire bytes reduce modeled exposed time vs fp32.
	if exposed(fp16b) >= exposed(fp32b) {
		t.Errorf("blocking: fp16 exposed %v, fp32 %v — compression must reduce it", exposed(fp16b), exposed(fp32b))
	}
	if exposed(fp16p) >= exposed(fp32p) {
		t.Errorf("pipeline: fp16 exposed %v, fp32 %v — compression must reduce it", exposed(fp16p), exposed(fp32p))
	}
	// The headline acceptance pair.
	if exposed(fp16p) >= exposed(fp32b) {
		t.Errorf("fp16/pipeline exposed %v must beat fp32/blocking %v", exposed(fp16p), exposed(fp32b))
	}
	// (c) The previous step's buckets really complete behind the next
	// step's forward, and only the pipelined schedule crosses the boundary.
	for _, run := range []TrainingRun{fp32p, fp16p} {
		if run.Stats.Phases.CrossStepHidden <= 0 {
			t.Errorf("%s: hid no cross-step bucket completion", run.Name)
		}
	}
	for _, run := range []TrainingRun{fp32b, fp16b} {
		if ph := run.Stats.Phases; ph.CrossStepExposed != 0 || ph.CrossStepHidden != 0 {
			t.Errorf("%s: charged cross-step time %v/%v", run.Name, ph.CrossStepExposed, ph.CrossStepHidden)
		}
	}
	// (d) The fabric delays and the schedule never change values: both fp32
	// schedules end at the same loss (fp16 differs — quantization is lossy,
	// error feedback or not — but must agree across its own schedules).
	if fp32b.FinalLoss != fp32p.FinalLoss || fp16b.FinalLoss != fp16p.FinalLoss {
		t.Errorf("schedules diverged in value: fp32 %v/%v, fp16 %v/%v",
			fp32b.FinalLoss, fp32p.FinalLoss, fp16b.FinalLoss, fp16p.FinalLoss)
	}
	// Every component is nonnegative and the modeled compute is nonzero.
	for _, row := range r.Runs {
		sim := row.Stats.Sim
		if sim.DenseFwd <= 0 || sim.DenseBwd <= 0 {
			t.Errorf("%s: modeled dense compute %v/%v should be positive", row.Name, sim.DenseFwd, sim.DenseBwd)
		}
		if sim.SPTTFwdExposed < 0 || sim.SPTTBwdExposed < 0 || exposed(row) <= 0 {
			t.Errorf("%s: bad exposure %v/%v/%v", row.Name, sim.SPTTFwdExposed, sim.SPTTBwdExposed, exposed(row))
		}
	}
	out := renderFigure13(r)
	if !strings.Contains(out, "fp16/pipeline") || !strings.Contains(out, "fp32/blocking") {
		t.Fatalf("format missing configs:\n%s", out)
	}
}

func TestQuantXLRMBand(t *testing.T) {
	r := QuantXLRM()
	if r.Speedup < 1.0 || r.Speedup > 1.5 {
		t.Fatalf("quantized XLRM speedup %v, paper up to 1.2", r.Speedup)
	}
}

func TestTowerHostsAblation(t *testing.T) {
	rows := TowerHostsAblation()
	if len(rows) != 4 || rows[0].HostsPerTower != 1 {
		t.Fatalf("ablation rows %+v", rows)
	}
	for _, r := range rows {
		if r.IterationMS <= 0 {
			t.Fatal("non-positive iteration time")
		}
	}
}

// Quality experiments at Smoke scale. The four that train repeats for
// seconds each skip under -short, as benchmark/'s slow tests do; plain
// `go test ./...` runs them.

func skipTrainedQualityInShort(t *testing.T) {
	t.Helper()
	if testing.Short() {
		t.Skip("trains models for seconds; skipped under -short")
	}
}

func TestTable3SPTTNeutralitySmoke(t *testing.T) {
	skipTrainedQualityInShort(t)
	rows := Table3(Smoke())
	if len(rows) != 4 {
		t.Fatalf("%d rows", len(rows))
	}
	for i := 0; i < len(rows); i += 2 {
		base, spttRow := rows[i], rows[i+1]
		if base.MedianAUC != spttRow.MedianAUC {
			t.Fatal("SPTT row must carry the identical AUC (pure dataflow)")
		}
		if !strings.Contains(spttRow.Note, "verified") || strings.Contains(spttRow.Note, "NOT") {
			t.Fatalf("SPTT equivalence not verified: %q", spttRow.Note)
		}
		if base.MedianAUC < 0.55 {
			t.Fatalf("%s AUC %v too weak", base.Model, base.MedianAUC)
		}
	}
	qualityTable("Table 3").render(rows)
}

func TestTable5GracefulDegradationSmoke(t *testing.T) {
	skipTrainedQualityInShort(t)
	rows := Table5(Smoke())
	if len(rows) != 4 {
		t.Fatalf("%d rows", len(rows))
	}
	if rows[0].CR != 2 || rows[3].CR != 16 {
		t.Fatalf("CR sweep wrong: %+v", rows)
	}
	// The Table 5 shape: highest compression must not beat the lowest by a
	// margin; ideally monotone, but small-budget noise allows slack.
	if rows[3].MedianAUC > rows[0].MedianAUC+0.01 {
		t.Fatalf("CR16 AUC %v should not exceed CR2 %v", rows[3].MedianAUC, rows[0].MedianAUC)
	}
	table5Table.render(rows)
}

func TestFigure9PipelineSmoke(t *testing.T) {
	r := Figure9(Smoke())
	if len(r.Groups) != qualityGroups {
		t.Fatalf("%d towers", len(r.Groups))
	}
	total := 0
	for _, g := range r.Groups {
		total += len(g)
	}
	if total != qualityFeatures {
		t.Fatalf("partition covers %d of %d features", total, qualityFeatures)
	}
	// On the converged-embedding proxy the block structure is strong: TP
	// must concentrate far more affinity than naive striding.
	if r.TPGain < 1.5 {
		t.Fatalf("TP gain over naive %v, want > 1.5", r.TPGain)
	}
	if r.WithinAffinity <= r.CrossAffinity {
		t.Fatal("coherent towers must concentrate affinity")
	}
	out := renderFigure9(r)
	if !strings.Contains(out, "2D") || !strings.Contains(out, "proxy") {
		t.Fatal("format")
	}
}

func TestFigure9LearnedVariantRuns(t *testing.T) {
	// The probe-trained variant must run; its structure is weak at smoke
	// scale by design, so only mechanics are asserted.
	r := Figure9Learned(Smoke())
	if len(r.Groups) != qualityGroups || r.Source != "probe-trained embeddings" {
		t.Fatalf("learned variant wrong: %d groups, %q", len(r.Groups), r.Source)
	}
}

func TestQuantQualitySmoke(t *testing.T) {
	skipTrainedQualityInShort(t)
	rows := QuantQuality(Smoke())
	if len(rows) != 4 {
		t.Fatalf("%d rows", len(rows))
	}
	if rows[0].DeltaNE != 0 {
		t.Fatal("fp32 row must be the NE reference")
	}
	// fp16 must be essentially free; int4 must not be dramatically better
	// than fp32 (rounding cannot add information).
	if math.Abs(rows[1].DeltaNE) > 0.01 {
		t.Fatalf("fp16 ΔNE %v should be negligible", rows[1].DeltaNE)
	}
	if rows[3].DeltaNE < -0.01 {
		t.Fatalf("int4 ΔNE %v implausibly negative", rows[3].DeltaNE)
	}
	quantQualityTable.render(rows)
}

func TestXLRMQualitySmoke(t *testing.T) {
	skipTrainedQualityInShort(t)
	r := XLRMQuality(Smoke())
	if math.IsNaN(r.BaselineNE) || math.IsNaN(r.DMTNE) {
		t.Fatal("NE is NaN")
	}
	if r.BaselineNE <= 0 || r.DMTNE <= 0 {
		t.Fatal("NE must be positive")
	}
	// Category towers should be at worst mildly behind the baseline even at
	// smoke scale.
	if r.DMTNE > r.BaselineNE*1.05 {
		t.Fatalf("DMT NE %v far above baseline %v", r.DMTNE, r.BaselineNE)
	}
	renderXLRM(r)
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var digits []byte
	for n > 0 {
		digits = append([]byte{byte('0' + n%10)}, digits...)
		n /= 10
	}
	return string(digits)
}

// TestTrainingThroughputReport: the train experiment's sweep runs the
// rank-parallel engine once per wire scheme, fp32 first, every row counting
// its steps, splitting its embedding traffic by host and moving gradients
// across hosts, and the table renders every scheme with fp32 as its zero.
// (The engines' bit-equal losses, sequential against blocking and
// pipelined, are distributed's TestParallelMatchesSequentialBitwise and
// TestPipelineMatchesSequentialBitwise; that the sequential engine
// moves no gradient across hosts is TestSequentialStatsCountTowerReduction.)
func TestTrainingThroughputReport(t *testing.T) {
	p := SmokeTraining()
	r, err := WireSchemes(p)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, row := range r.Runs {
		names = append(names, row.Name)
		if row.Stats.Steps != p.Steps {
			t.Fatalf("%s: counted %d steps, want %d", row.Name, row.Stats.Steps, p.Steps)
		}
		if row.Stats.EmbIntraHostBytes <= 0 || row.Stats.EmbCrossHostBytes <= 0 {
			t.Fatalf("%s: embedding traffic not split: %+v", row.Name, row.Stats)
		}
		if row.Stats.GradCrossHostBytes <= 0 {
			t.Fatalf("%s: no cross-host gradient bytes: %+v", row.Name, row.Stats)
		}
	}
	if got := strings.Join(names, " "); got != "fp32 fp16 int8 int4" {
		t.Fatalf("sweep rows %q, want fp32 fp16 int8 int4", got)
	}
	s := renderWireSchemes(r)
	for _, want := range []string{"fp32", "fp16", "int8", "int4", "+0.000000", "+0.0%"} {
		if !strings.Contains(s, want) {
			t.Fatalf("wire-scheme table missing %q:\n%s", want, s)
		}
	}
}

// TestTrainingSetupFailureIsAnError: a profile the trainer rejects comes
// back from the sweep as an error, not a panic.
func TestTrainingSetupFailureIsAnError(t *testing.T) {
	p := SmokeTraining()
	p.LocalBatch = 0
	if _, err := WireSchemes(p); err == nil {
		t.Fatal("WireSchemes accepted an empty local batch")
	}
}

// TestTrainingThroughputClosesTrainers: with a remote embedding tier no
// goroutine may outlive the sweep. The tier's rounds run on the trainer's
// rank goroutines, which every step joins; the short poll only covers
// goroutines already on their way out.
func TestTrainingThroughputClosesTrainers(t *testing.T) {
	p := SmokeTraining()
	p.EmbServers = 1
	before := runtime.NumGoroutine()
	if _, err := WireSchemes(p); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Fatalf("WireSchemes leaked %d goroutine(s) with EmbServers=1", after-before)
	}
}

// TestTrainingCompressionSweep: against the fp32 row, every compressed
// scheme must charge fewer cross-host bytes than the one before it — fp16
// at least 40% fewer embedding bytes (the dmt-bench acceptance bar) and
// exactly 3/4 of the gradient bytes (the reduce halves, the fp32 weight
// gather that answers it does not) — and keep the error-feedback loss
// drift small.
func TestTrainingCompressionSweep(t *testing.T) {
	r, err := WireSchemes(SmokeTraining())
	if err != nil {
		t.Fatal(err)
	}
	base, fp16 := mustRun(t, r, "fp32"), mustRun(t, r, "fp16")
	if base.Stats.GradCrossHostBytes <= 0 {
		t.Fatalf("fp32 row has no cross-host gradient traffic: %+v", base.Stats)
	}
	if got := fp16.Stats.GradCrossHostBytes; 4*got != 3*base.Stats.GradCrossHostBytes {
		t.Fatalf("fp16 gradient cross-host bytes %d are not 3/4 of fp32's %d",
			got, base.Stats.GradCrossHostBytes)
	}
	if got, limit := fp16.Stats.EmbCrossHostBytes, base.Stats.EmbCrossHostBytes*6/10; got > limit {
		t.Fatalf("fp16 embedding cross-host bytes %d not ≥40%% under fp32's %d",
			got, base.Stats.EmbCrossHostBytes)
	}
	for i, row := range r.Runs[1:] {
		prev := r.Runs[i]
		if row.Stats.GradCrossHostBytes >= prev.Stats.GradCrossHostBytes ||
			row.Stats.EmbCrossHostBytes >= prev.Stats.EmbCrossHostBytes {
			t.Fatalf("%s charges no fewer cross-host bytes than %s: %+v vs %+v", row.Name, prev.Name, row.Stats, prev.Stats)
		}
		if drift := row.FinalLoss - base.FinalLoss; math.Abs(drift) > 0.01*base.FinalLoss {
			t.Fatalf("%s loss drift %v too large vs baseline %v", row.Name, drift, base.FinalLoss)
		}
	}
	if s := renderWireSchemes(r); !strings.Contains(s, "-25.0%") {
		t.Fatalf("wire-scheme table missing fp16's gradient savings:\n%s", s)
	}
}

// TestFigure6CompressedKeepsRanking: costing the planner's links at fp16 or
// int8 must leave the paper's headline ranking — pure data parallelism wins
// — unchanged, and must never make any mesh slower than its fp32 costing.
func TestFigure6CompressedKeepsRanking(t *testing.T) {
	base := Figure6(quant.None)
	for _, s := range []quant.Scheme{quant.FP16, quant.INT8} {
		r := Figure6(s)
		if !r.DataParallelIsBest {
			t.Fatalf("%s: best mesh %+v is not data parallel", s, r.BestMesh)
		}
		if len(r.Results) != len(base.Results) {
			t.Fatalf("%s: %d configs, want %d", s, len(r.Results), len(base.Results))
		}
		if r.Results[0].Latency > base.Results[0].Latency {
			t.Fatalf("%s: compression slowed the best mesh: %v > %v",
				s, r.Results[0].Latency, base.Results[0].Latency)
		}
	}
}

// SmokeTraining keeps the test suite fast.
func SmokeTraining() TrainingProfile {
	return TrainingProfile{
		G: 4, L: 2, LocalBatch: 8, Steps: 2,
		Features: 8, N: 8, D: 4, TopMLP: []int{16},
	}
}
