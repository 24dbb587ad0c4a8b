package experiments

import (
	"fmt"
	"strings"

	"dmt/internal/data"
	"dmt/internal/metrics"
	"dmt/internal/models"
	"dmt/internal/nn"
	"dmt/internal/partition"
	"dmt/internal/perfmodel"
	"dmt/internal/quant"
	"dmt/internal/sptt"
	"dmt/internal/tensor"
	"dmt/internal/topology"
)

// Profile controls the fidelity of the training-based experiments. The
// paper's protocol (9 repeats, 4B samples) is scaled to in-process budgets;
// Full preserves the 9-repeat statistics, Quick is the cmd default, Smoke
// keeps the test suite fast.
type Profile struct {
	Name        string
	Steps       int
	BatchSize   int
	Runs        int
	EvalSamples int
	// Cardinality is the per-table vocabulary size; smaller values let
	// every row be visited often enough to learn within Steps×BatchSize
	// samples (the in-process analog of the paper's 4B-sample budget).
	Cardinality int
}

// Smoke is the test-suite profile.
func Smoke() Profile {
	return Profile{Name: "smoke", Steps: 120, BatchSize: 96, Runs: 2, EvalSamples: 2048, Cardinality: 48}
}

// Quick is the default command-line profile.
func Quick() Profile {
	return Profile{Name: "quick", Steps: 300, BatchSize: 128, Runs: 3, EvalSamples: 4096, Cardinality: 64}
}

// Full mirrors the paper's 9-repeat protocol.
func Full() Profile {
	return Profile{Name: "full", Steps: 1500, BatchSize: 256, Runs: 9, EvalSamples: 16384, Cardinality: 200}
}

// qualityFeatures is the sparse-feature count of the quality workload:
// divisible by the tower counts exercised (2, 4, 8, 24).
const qualityFeatures = 24

// qualityGroups is the planted interaction-group count.
const qualityGroups = 8

// workload builds the standardized synthetic CTR workload.
func qualityWorkload(p Profile, seed uint64) *data.Generator {
	cfg := data.CriteoLike(seed)
	cfg.Cardinalities = make([]int, qualityFeatures)
	cfg.HotSizes = make([]int, qualityFeatures)
	for i := range cfg.Cardinalities {
		cfg.Cardinalities[i] = p.Cardinality
		cfg.HotSizes[i] = 1
	}
	cfg.NumGroups = qualityGroups
	return data.NewGenerator(cfg)
}

func trainConfig(p Profile) models.TrainConfig {
	return models.TrainConfig{
		Steps:       p.Steps,
		BatchSize:   p.BatchSize,
		DenseLR:     1e-3,
		EvalStart:   1 << 22,
		EvalSamples: p.EvalSamples,
	}
}

const qualityN = 16 // embedding dimension of the quality models

func dlrmConfig(schema data.Schema, seed uint64) models.DLRMConfig {
	return models.DLRMConfig{Schema: schema, N: qualityN,
		BottomMLP: []int{32, qualityN}, TopMLP: []int{64, 32}, Seed: seed}
}

func dcnConfig(schema data.Schema, seed uint64) models.DCNConfig {
	return models.DCNConfig{Schema: schema, N: qualityN, CrossLayers: 2,
		DeepMLP: []int{64, 32}, Seed: seed}
}

// dlrmFamily and dcnFamily are the seeded constructors of the two baseline
// model families on a schema, as RepeatedAUC and the tables consume them.
func dlrmFamily(schema data.Schema) func(seed uint64) models.Model {
	return func(seed uint64) models.Model { return models.NewDLRM(dlrmConfig(schema, seed)) }
}

func dcnFamily(schema data.Schema) func(seed uint64) models.Model {
	return func(seed uint64) models.Model { return models.NewDCN(dcnConfig(schema, seed)) }
}

func dmtDLRMConfig(schema data.Schema, towersList [][]int, d int, seed uint64) models.DMTDLRMConfig {
	return models.DMTDLRMConfig{Schema: schema, N: qualityN, Towers: towersList,
		C: 1, P: 0, D: d, BottomMLP: []int{32, d}, TopMLP: []int{64, 32}, Seed: seed}
}

func dmtDCNConfig(schema data.Schema, towersList [][]int, seed uint64) models.DMTDCNConfig {
	return models.DMTDCNConfig{Schema: schema, N: qualityN, Towers: towersList,
		D: qualityN / 2, TMCrossLayers: 1, CrossLayers: 2, DeepMLP: []int{64, 32}, Seed: seed}
}

// tpTowers partitions the workload's features with the coherent-strategy
// Tower Partitioner. The interaction matrix is derived from the generator's
// oracle latents (the stand-in for a converged production model's learned
// embeddings; Figure9 runs the full learned pipeline from probe-trained
// tables).
func tpTowers(gen *data.Generator, k int, seed uint64) [][]int {
	tp := partition.NewTP(partition.Coherent, seed)
	res, err := tp.PartitionEmbeddings(gen.LatentBatch(0, 256), k)
	if err != nil {
		panic(err)
	}
	return res.Groups
}

// Table2Row compares baseline and Strong Baseline training recipes.
type Table2Row struct {
	Config    string
	BatchSize int
	AUC       float64
	// EpochHours is the modeled 4B-sample epoch time on 64 A100 GPUs at the
	// row's batch size.
	EpochHours      float64
	PaperAUC        float64
	PaperEpochHours float64
}

// Table2 reproduces the Strong Baseline justification: bigger batches with
// a tuned Adam schedule win on both AUC and epoch time.
func Table2(p Profile) []Table2Row {
	gen := qualityWorkload(p, 2024)
	cluster := topology.NewCluster(topology.A100, 64)

	epochHours := func(spec perfmodel.ModelSpec, localBatch int) float64 {
		cfg := perfmodel.DefaultConfig(spec, cluster, perfmodel.Baseline)
		cfg.LocalBatch = localBatch
		iter := perfmodel.Iterate(cfg).Total()
		const epochSamples = 4e9 // §5.2: 4B samples
		iters := epochSamples / float64(localBatch*cluster.GPUs())
		return iters * iter / 3600
	}

	// Baseline: small batch, flat LR. Strong Baseline: large batch + decay
	// schedule (§5.1's tuned recipe), same total sample budget.
	smallBatch := p.BatchSize / 4
	baseTC := trainConfig(p)
	baseTC.BatchSize = smallBatch
	baseTC.Steps = p.Steps * 4
	baseTC.DenseLR = 5e-4

	strongTC := trainConfig(p)
	strongTC.Schedule = &nn.ExponentialLR{Base: 1e-3, Gamma: 0.7, StepSize: p.Steps / 3}

	var rows []Table2Row
	for _, m := range []struct {
		name                           string
		base                           func(seed uint64) models.Model
		pAUCb, pAUCs, pEpochB, pEpochS float64
	}{
		{"DLRM", dlrmFamily(gen.Config().Schema), 0.8030, 0.8047, 6.5, 29.0 / 60},
		{"DCN", dcnFamily(gen.Config().Schema), 0.7963, 0.8002, 58.0 / 60, 27.0 / 60},
	} {
		spec := perfmodel.DLRMSpec()
		if m.name == "DCN" {
			spec = perfmodel.DCNSpec()
		}
		baseRes := models.Train(m.base(11), gen, baseTC)
		strongRes := models.Train(m.base(11), gen, strongTC)
		rows = append(rows,
			Table2Row{Config: "Baseline (" + m.name + ")", BatchSize: smallBatch,
				AUC: baseRes.AUC, EpochHours: epochHours(spec, 2048),
				PaperAUC: m.pAUCb, PaperEpochHours: m.pEpochB},
			Table2Row{Config: "Strong Baseline (" + m.name + ")", BatchSize: p.BatchSize,
				AUC: strongRes.AUC, EpochHours: epochHours(spec, 16*1024),
				PaperAUC: m.pAUCs, PaperEpochHours: m.pEpochS},
		)
	}
	return rows
}

var table2Table = table[Table2Row]{
	title: "Table 2: Baseline vs Strong Baseline (synthetic workload; epoch time modeled)",
	cols: []column[Table2Row]{
		{"Config", "%-26s", func(r Table2Row) any { return r.Config }},
		{"Batch", "%6d", func(r Table2Row) any { return r.BatchSize }},
		{"AUC", "%8.4f", func(r Table2Row) any { return r.AUC }},
		{"Epoch(h)", "%10.2f", func(r Table2Row) any { return r.EpochHours }},
		{"PaperAUC", "%10.4f", func(r Table2Row) any { return r.PaperAUC }},
		{"PaperEpoch(h)", "%12.2f", func(r Table2Row) any { return r.PaperEpochHours }},
	},
}

// QualityRow is a generic model-quality measurement used by Tables 3–6.
type QualityRow struct {
	Model           string
	MedianAUC       float64
	StdAUC          float64
	MFlopsPerSample float64
	ParamsMillions  float64
	PaperAUC        float64
	Note            string
}

// repeatedQuality is the one "train runs repeats, summarise" step the
// quality tables share: the median/std AUC over the repeats next to the
// model's compute and size, plus the per-run AUCs for significance tests.
func repeatedQuality(name string, mk func(seed uint64) models.Model, gen *data.Generator,
	tc models.TrainConfig, runs int, seed uint64, paperAUC float64) (QualityRow, []float64) {
	aucs := models.RepeatedAUC(mk, gen, tc, runs, seed)
	probe := mk(seed)
	return QualityRow{
		Model:           name,
		MedianAUC:       metrics.Median(aucs),
		StdAUC:          metrics.StdDev(aucs),
		MFlopsPerSample: probe.FlopsPerSample() / 1e6,
		ParamsMillions:  float64(probe.ParamCount()) / 1e6,
		PaperAUC:        paperAUC,
	}, aucs
}

// qualityTable renders Table 3/4-style quality grids.
func qualityTable(title string) table[QualityRow] {
	return table[QualityRow]{
		title: title,
		cols: []column[QualityRow]{
			{"Model", "%-24s", func(r QualityRow) any { return r.Model }},
			{"AUC", "%9.4f", func(r QualityRow) any { return r.MedianAUC }},
			{"Std", "%9.4f", func(r QualityRow) any { return r.StdAUC }},
			{"MFlops/s", "%10.3f", func(r QualityRow) any { return r.MFlopsPerSample }},
			{"Params(M)", "%10.3f", func(r QualityRow) any { return r.ParamsMillions }},
			{"PaperAUC", "%9.4f", func(r QualityRow) any { return r.PaperAUC }},
			{"Note", " %s", func(r QualityRow) any { return r.Note }},
		},
	}
}

// Table3 reproduces the SPTT AUC-neutrality result: the transform is pure
// dataflow, so the SPTT rows carry the identical AUC, certified by running
// the distributed transform against the baseline bit-for-bit on the
// workload's schema.
func Table3(p Profile) []QualityRow {
	gen := qualityWorkload(p, 3033)
	tc := trainConfig(p)

	verified := verifySPTTNeutrality(gen)
	note := "bit-identical dataflow NOT verified"
	if verified {
		note = "bit-identical dataflow verified on live tables"
	}

	var rows []QualityRow
	for _, m := range []struct {
		name     string
		mk       func(seed uint64) models.Model
		paperAUC float64
		paperTM  float64
	}{
		{"DLRM", dlrmFamily(gen.Config().Schema), 0.8047, 0.8053},
		{"DCN", dcnFamily(gen.Config().Schema), 0.8002, 0.8001},
	} {
		base, _ := repeatedQuality(m.name, m.mk, gen, tc, p.Runs, 500, m.paperAUC)
		rows = append(rows, base)
		spttRow := base
		spttRow.Model = "SPTT-" + m.name
		spttRow.PaperAUC = m.paperTM
		spttRow.Note = note
		rows = append(rows, spttRow)
	}
	return rows
}

// verifySPTTNeutrality runs the distributed SPTT transform against the
// global-AlltoAll baseline on gen's workload (4 GPUs, 2 hosts, round-robin
// towers, each rank fed its own batch of gen's bags) and reports bit-exact
// equality of every rank's output.
func verifySPTTNeutrality(gen *data.Generator) bool {
	const g, l, b = 4, 2, 8
	schema := gen.Config().Schema
	cfg := sptt.Config{G: g, L: l, B: b, N: qualityN}
	for f := 0; f < schema.NumSparse(); f++ {
		cfg.Features = append(cfg.Features, sptt.FeatureSpec{
			Name: fmt.Sprintf("f%d", f), Cardinality: schema.Cardinalities[f], Hot: schema.HotSizes[f]})
	}
	var err error
	cfg.TowerOf, cfg.RankOf, err = sptt.TowerAssignment(models.RoundRobinTowers(g/l, schema.NumSparse()), schema.NumSparse(), l)
	if err != nil {
		return false
	}
	eng, err := sptt.NewEngine(cfg, 77)
	if err != nil {
		return false
	}
	inputs := make([]*sptt.Inputs, g)
	for r := range inputs {
		batch := gen.Batch(r*b, b)
		inputs[r] = &sptt.Inputs{Indices: batch.Indices, Offsets: batch.Offsets}
	}
	base, _ := eng.BaselineForward(inputs)
	transformed, _ := eng.SPTTForward(inputs, sptt.Options{})
	for r := 0; r < g; r++ {
		if !base[r].Equal(transformed[r]) {
			return false
		}
	}
	return true
}

// Table4 reproduces the tower-count sweep: DMT nT models against the
// Strong Baseline for both families.
func Table4(p Profile) []QualityRow {
	gen := qualityWorkload(p, 4044)
	tc := trainConfig(p)
	schema := gen.Config().Schema

	var rows []QualityRow
	addRows := func(family string, baseline func(uint64) models.Model, dmt func([][]int, uint64) models.Model,
		towerCounts []int, paperBase float64, paperDMT map[int]float64) {
		row, _ := repeatedQuality(family+" Strong Baseline", baseline, gen, tc, p.Runs, 700, paperBase)
		rows = append(rows, row)
		for _, t := range towerCounts {
			towersList := tpTowers(gen, t, 900+uint64(t))
			mk := func(seed uint64) models.Model { return dmt(towersList, seed) }
			row, _ := repeatedQuality(fmt.Sprintf("DMT %dT-%s", t, family), mk, gen, tc, p.Runs, 700, paperDMT[t])
			rows = append(rows, row)
		}
	}

	addRows("DLRM", dlrmFamily(schema),
		func(tl [][]int, s uint64) models.Model {
			return models.NewDMTDLRM(dmtDLRMConfig(schema, tl, qualityN/2, s))
		},
		[]int{2, 4, 8, 24},
		0.8047, map[int]float64{2: 0.8046, 4: 0.8045, 8: 0.8045, 24: 0.8047})
	addRows("DCN", dcnFamily(schema),
		func(tl [][]int, s uint64) models.Model { return models.NewDMTDCN(dmtDCNConfig(schema, tl, s)) },
		[]int{2, 4, 8},
		0.8002, map[int]float64{2: 0.7998, 4: 0.8003, 8: 0.8006})
	// One tower per feature: "for 26-tower DCN, we simply use SPTT alone"
	// (§5.2.2) — the row carries the baseline's AUC, certified bit-exact by
	// Table 3's equivalence check.
	for _, r := range rows {
		if r.Model == "DCN Strong Baseline" {
			r.Model = fmt.Sprintf("DMT %dT-DCN", qualityFeatures)
			r.PaperAUC = 0.8001
			r.Note = "SPTT alone (one tower per feature)"
			rows = append(rows, r)
			break
		}
	}
	return rows
}

// Table5Row is one compression-ratio point of the AUC trade-off.
type Table5Row struct {
	CR float64
	D  int
	QualityRow
}

// Table5 reproduces AUC versus compression ratio on DMT 8T-DLRM: quality
// degrades gracefully as D shrinks (paper: 0.8045 → 0.8000 from CR 2 to 16).
func Table5(p Profile) []Table5Row {
	gen := qualityWorkload(p, 5055)
	tc := trainConfig(p)
	schema := gen.Config().Schema
	towersList := tpTowers(gen, 8, 908)

	paper := map[float64]float64{2: 0.8045, 4: 0.8036, 8: 0.8022, 16: 0.8000}
	var rows []Table5Row
	for _, d := range []int{qualityN / 2, qualityN / 4, qualityN / 8, qualityN / 16} {
		cr := float64(qualityN) / float64(d)
		mk := func(seed uint64) models.Model {
			return models.NewDMTDLRM(dmtDLRMConfig(schema, towersList, d, seed))
		}
		row, _ := repeatedQuality("DMT 8T-DLRM", mk, gen, tc, p.Runs, 1100, paper[cr])
		rows = append(rows, Table5Row{CR: cr, D: d, QualityRow: row})
	}
	return rows
}

var table5Table = table[Table5Row]{
	title: "Table 5: AUC vs compression ratio, DMT 8T-DLRM",
	cols: []column[Table5Row]{
		{"CR", "%6.0f", func(r Table5Row) any { return r.CR }},
		{"D", "%4d", func(r Table5Row) any { return r.D }},
		{"AUC", "%9.4f", func(r Table5Row) any { return r.MedianAUC }},
		{"Std", "%9.4f", func(r Table5Row) any { return r.StdAUC }},
		{"PaperAUC", "%10.4f", func(r Table5Row) any { return r.PaperAUC }},
	},
}

// Table6Row compares TP against the naive strided assignment: each side's
// repeats summarised (PaperAUC carries the paper's figure for that side),
// and the Mann-Whitney U p-value between the per-run AUCs.
type Table6Row struct {
	Config    string
	TP, Naive QualityRow
	PValue    float64
}

// Table6 reproduces the TP-vs-naive significance test: per configuration,
// p.Runs repeats with each assignment, compared by Mann-Whitney U.
//
// Reproduction note: the paper's effect size (+0.0009 AUC, std 0.0003 over
// 9 runs of 4B samples) sits below this reproduction's training-noise floor
// (std ≈ 0.005 at in-process budgets), so the direction of the medians is
// not stable run to run here; the statistical machinery and protocol are
// what this table reproduces. TP's partition quality itself is certified
// directly by the affinity metrics (Figure 9, cmd/dmt-partition: planted
// groups recovered at pair-F1 1.0, within-tower affinity ≈ 2.4× naive).
func Table6(p Profile) []Table6Row {
	gen := qualityWorkload(p, 6066)
	schema := gen.Config().Schema

	run := func(name string, towersCount int, mkModel func([][]int, uint64) models.Model, lr float32,
		paperTP, paperNaive float64) Table6Row {
		tc := trainConfig(p)
		tc.DenseLR = lr
		// A larger eval set trims per-run AUC estimation noise, the
		// dominant variance source at these budgets.
		tc.EvalSamples = p.EvalSamples * 4
		tpList := tpTowers(gen, towersCount, 910+uint64(towersCount))
		naiveList := models.RoundRobinTowers(towersCount, qualityFeatures)
		tp, tpAUCs := repeatedQuality("TP", func(s uint64) models.Model { return mkModel(tpList, s) },
			gen, tc, p.Runs, 1300, paperTP)
		naive, naiveAUCs := repeatedQuality("naive", func(s uint64) models.Model { return mkModel(naiveList, s) },
			gen, tc, p.Runs, 1300, paperNaive)
		_, pval := metrics.MannWhitneyU(tpAUCs, naiveAUCs)
		return Table6Row{Config: name, TP: tp, Naive: naive, PValue: pval}
	}

	return []Table6Row{
		// Heavy per-feature compression (D=2, CR 8): the shared per-tower
		// projection must serve all its features, which is where coherent
		// grouping can pay.
		run("DMT 8T-DLRM (lr 1e-3)", 8,
			func(tl [][]int, s uint64) models.Model { return models.NewDMTDLRM(dmtDLRMConfig(schema, tl, 2, s)) },
			1e-3, 0.7990, 0.7981),
		run("DMT 4T-DCN (lr 2e-3)", 4,
			func(tl [][]int, s uint64) models.Model { return models.NewDMTDCN(dmtDCNConfig(schema, tl, s)) },
			2e-3, 0.8006, 0.8003),
	}
}

var table6Table = table[Table6Row]{
	title: "Table 6: TP vs naive assignment (Mann-Whitney U)",
	cols: []column[Table6Row]{
		{"Config", "%-22s", func(r Table6Row) any { return r.Config }},
		{"TP", "%9.4f", func(r Table6Row) any { return r.TP.MedianAUC }},
		{"TP std", "%9.4f", func(r Table6Row) any { return r.TP.StdAUC }},
		{"Naive", "%9.4f", func(r Table6Row) any { return r.Naive.MedianAUC }},
		{"Nv std", "%9.4f", func(r Table6Row) any { return r.Naive.StdAUC }},
		{"p-value", "%9.4f", func(r Table6Row) any { return r.PValue }},
		{"PaperTP", "%9.4f", func(r Table6Row) any { return r.TP.PaperAUC }},
		{"PaperNv", "%9.4f", func(r Table6Row) any { return r.Naive.PaperAUC }},
	},
}

// Figure9Result carries the artifacts of the TP visualization: the
// similarity matrix under the coherent strategy, the learned planar
// embedding, and the color-coded tower assignment.
type Figure9Result struct {
	Partition *partition.Result
	Groups    [][]int
	// Source documents which embeddings produced the interaction matrix.
	Source string
	// WithinAffinity / CrossAffinity summarize the block structure; TPGain
	// is TP's within-affinity over the naive assignment's.
	WithinAffinity float64
	CrossAffinity  float64
	TPGain         float64
}

// Figure9 reproduces the TP visualization. The paper derives the similarity
// matrix from a converged production model's learned embeddings; in-process
// probe training is far from convergence (its tables show no geometry yet —
// see Figure9Learned), so the default path uses the generator's oracle
// latents as the converged-embedding proxy. Everything downstream — the
// interaction matrix, the MDS embedding, the constrained clustering — is
// the identical learned pipeline.
func Figure9(p Profile) Figure9Result {
	gen := qualityWorkload(p, 9099)
	return figure9From(gen.LatentBatch(0, 256), "oracle latents (converged-embedding proxy)")
}

// Figure9Learned runs the same pipeline on embeddings from a probe-trained
// DLRM, exposing how much structure the tables have acquired at the
// profile's budget (at in-process scale: little — the matrix is nearly
// flat, which is itself the finding: `dmt-train -exp fig9learned` prints it).
func Figure9Learned(p Profile) Figure9Result {
	gen := qualityWorkload(p, 9099)
	tc := trainConfig(p)
	m := models.NewDLRM(dlrmConfig(gen.Config().Schema, 42))
	models.Train(m, gen, tc)
	emb := models.GatherFeatureEmbeddings(m, gen, 1<<21, 256)
	return figure9From(emb, "probe-trained embeddings")
}

func figure9From(emb *tensor.Tensor, source string) Figure9Result {
	tp := partition.NewTP(partition.Coherent, 43)
	res, err := tp.PartitionEmbeddings(emb, qualityGroups)
	if err != nil {
		panic(err)
	}
	within, cross := partition.WithinCrossAffinity(res.Interaction, res.Groups)
	naiveWithin, _ := partition.WithinCrossAffinity(res.Interaction,
		models.RoundRobinTowers(qualityGroups, qualityFeatures))
	gain := 0.0
	if naiveWithin > 0 {
		gain = within / naiveWithin
	}
	return Figure9Result{
		Partition:      res,
		Groups:         res.Groups,
		Source:         source,
		WithinAffinity: within,
		CrossAffinity:  cross,
		TPGain:         gain,
	}
}

// renderFigure9 renders the similarity matrix as an ASCII heatmap plus the
// learned 2-D coordinates with tower labels.
func renderFigure9(r Figure9Result) string {
	var b strings.Builder
	im := r.Partition.Interaction
	f := im.Dim(0)
	groupOf := make([]int, f)
	for t, g := range r.Groups {
		for _, i := range g {
			groupOf[i] = t
		}
	}
	fmt.Fprintf(&b, "Figure 9: TP similarity matrix (coherent strategy) and 2D embedding\n")
	fmt.Fprintf(&b, "source: %s\n", r.Source)
	shades := []byte(" .:-=+*#%@")
	for i := 0; i < f; i++ {
		for j := 0; j < f; j++ {
			k := int(im.At(i, j) * float32(len(shades)-1))
			b.WriteByte(shades[max(0, min(k, len(shades)-1))])
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, " f%02d t%d\n", i, groupOf[i])
	}
	fmt.Fprintf(&b, "\nLearned 2D feature coordinates (feature: x, y, tower):\n")
	for i := 0; i < f; i++ {
		fmt.Fprintf(&b, "  f%02d: %+7.3f %+7.3f  t%d\n",
			i, r.Partition.Coords.At(i, 0), r.Partition.Coords.At(i, 1), groupOf[i])
	}
	fmt.Fprintf(&b, "\nWithin-tower affinity %.4f vs cross-tower %.4f (TP/naive gain %.2fx)\n",
		r.WithinAffinity, r.CrossAffinity, r.TPGain)
	return b.String()
}

// QuantQualityRow is one precision point of the §6 quantization-quality
// study: the paper reports FP8-quantizing XLRM already costs 0.1% NE
// "without extensive tuning" — quantized comm trades quality for bytes,
// which is DMT's opening.
type QuantQualityRow struct {
	Scheme  quant.Scheme
	AUC     float64
	NE      float64
	DeltaNE float64 // NE - fp32 NE; positive = worse
}

// QuantQuality trains the DLRM baseline under progressively coarser
// embedding-communication precision.
func QuantQuality(p Profile) []QuantQualityRow {
	gen := qualityWorkload(p, 8088)
	tc := trainConfig(p)
	var rows []QuantQualityRow
	var baseNE float64
	for _, s := range []quant.Scheme{quant.None, quant.FP16, quant.INT8, quant.INT4} {
		cfg := dlrmConfig(gen.Config().Schema, 31)
		cfg.EmbCommQuant = s
		res := models.Train(models.NewDLRM(cfg), gen, tc)
		if s == quant.None {
			baseNE = res.NE
		}
		rows = append(rows, QuantQualityRow{
			Scheme: s, AUC: res.AUC, NE: res.NE, DeltaNE: res.NE - baseNE,
		})
	}
	return rows
}

var quantQualityTable = table[QuantQualityRow]{
	title: "§6 quality side: embedding-comm precision vs model quality (DLRM)",
	cols: []column[QuantQualityRow]{
		{"Scheme", "%-8s", func(r QuantQualityRow) any { return r.Scheme }},
		{"AUC", "%9.4f", func(r QuantQualityRow) any { return r.AUC }},
		{"NE", "%9.4f", func(r QuantQualityRow) any { return r.NE }},
		{"ΔNE", "%+10.4f", func(r QuantQualityRow) any { return r.DeltaNE }},
	},
	foot: []string{"paper: FP8-quantizing XLRM costs 0.1% NE without extensive tuning"},
}

// XLRMQualityResult is the §5.2.2/§5.2.3 XLRM-mini experiment: DMT with
// category-partitioned towers (item / item-user / user) against the
// unmodified model, measured in Normalized Entropy (lower is better).
type XLRMQualityResult struct {
	BaselineNE          float64
	DMTNE               float64
	ImprovementPct      float64
	PaperImprovementPct float64 // paper reports a 0.02% NE improvement
}

// XLRMQuality reproduces the XLRM normalized-entropy comparison on the
// scaled-down XLRM-mini workload.
func XLRMQuality(p Profile) XLRMQualityResult {
	cfg := data.XLRMMini(7077)
	for i := range cfg.Cardinalities {
		cfg.Cardinalities[i] = p.Cardinality
	}
	gen := data.NewGenerator(cfg)
	tc := trainConfig(p)

	base := models.Train(dlrmFamily(cfg.Schema)(21), gen, tc)

	// Category towers: the generator's three planted categories stand in
	// for the item / item-user / user split TP discovered (§5.2.3).
	dmt := models.Train(models.NewDMTDLRM(dmtDLRMConfig(cfg.Schema, gen.TrueGroups(), qualityN/2, 21)), gen, tc)

	imp := (base.NE - dmt.NE) / base.NE * 100
	return XLRMQualityResult{
		BaselineNE: base.NE, DMTNE: dmt.NE,
		ImprovementPct:      imp,
		PaperImprovementPct: 0.02,
	}
}

func renderXLRM(r XLRMQualityResult) string {
	return fmt.Sprintf("XLRM-mini (§5.2.2): Normalized Entropy, category towers vs baseline\n"+
		"Baseline NE %.4f, DMT NE %.4f, improvement %+.3f%% (paper: +%.2f%%)\n",
		r.BaselineNE, r.DMTNE, r.ImprovementPct, r.PaperImprovementPct)
}
