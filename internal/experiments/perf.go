// Package experiments contains one entry point per table and figure of the
// paper's evaluation (§5) plus the §6 discussion experiments. Each entry
// returns typed rows carrying both the reproduction's measurement and the
// paper's reported value, and declares the table that renders them; the
// registry (registry.go) is the one list of them that cmd/dmt-bench,
// cmd/dmt-train, cmd/dmt-serve and the root BenchmarkExperiments all read
// (`dmt-bench -list` / `dmt-train -list` print it).
//
// No Model or Measured table reads the wall clock: Model tables evaluate
// closed forms, and Measured ones read the training engines' losses, byte
// counters and virtual clocks — train's wire-scheme sweep on a zero-delay
// network, the others on a simulated fabric — so testdata/*.golden pins
// each byte for byte. The engines' wall-clock step rates are the root
// BenchmarkDistributedStep's.
package experiments

import (
	"fmt"

	"dmt/internal/netsim"
	"dmt/internal/parallel"
	"dmt/internal/perfmodel"
	"dmt/internal/quant"
	"dmt/internal/topology"
)

// scales used across the throughput experiments (§5.3.1: 16–512 GPUs).
var gpuScales = []int{16, 32, 64, 128, 256, 512}

// v100MaxGPUs reflects the paper's footnote: the V100 cluster supports at
// most 16 hosts (128 GPUs).
const v100MaxGPUs = 128

// Table1Row is one hardware generation (Table 1).
type Table1Row struct {
	Gen topology.Generation
	// ComputeGrowth and ScaleOutGrowth are relative to V100.
	ComputeGrowth  float64
	ScaleOutGrowth float64
}

// Table1 reproduces the generational-upgrades table.
func Table1() []Table1Row {
	base := topology.V100
	var rows []Table1Row
	for _, g := range topology.Generations() {
		rows = append(rows, Table1Row{
			Gen:            g,
			ComputeGrowth:  g.PeakTFlops / base.PeakTFlops,
			ScaleOutGrowth: g.ScaleOutGbps / base.ScaleOutGbps,
		})
	}
	return rows
}

var table1Table = table[Table1Row]{
	title: "Table 1: Generational upgrades (compute outpaces network)",
	cols: []column[Table1Row]{
		{"GPU", "%-6s", func(r Table1Row) any { return r.Gen.Name }},
		{"Year", "%-6d", func(r Table1Row) any { return r.Gen.Year }},
		{"Peak TF/s", "%10.1f", func(r Table1Row) any { return r.Gen.PeakTFlops }},
		{"ScaleOut Gb", "%12.0f", func(r Table1Row) any { return r.Gen.ScaleOutGbps }},
		{"ScaleUp GB/s", "%12.0f", func(r Table1Row) any { return r.Gen.ScaleUpGBps }},
		{"Compute×", "%9.1f", func(r Table1Row) any { return r.ComputeGrowth }},
		{"Net×", "%9.1f", func(r Table1Row) any { return r.ScaleOutGrowth }},
	},
}

// Figure1Row is one bar of the exposed-latency breakdown of DCN on 64×H100:
// the model's percent share and the paper's reported one (negative where
// the paper reports none).
type Figure1Row struct {
	Component          string
	ModelPct, PaperPct float64
}

// Figure1 reproduces the iteration-latency breakdown bar, in the figure's
// order: compute, exposed embedding comm, exposed dense sync, others.
func Figure1() []Figure1Row {
	c := topology.NewCluster(topology.H100, 64)
	b := perfmodel.Iterate(perfmodel.DefaultConfig(perfmodel.DCNSpec(), c, perfmodel.Baseline))
	comp, emb, dense, others := b.Percentages()
	return []Figure1Row{
		{"Compute", comp, 70.4},
		{"Exposed Embedding Comm", emb, 27.5},
		{"Exposed Dense Sync", dense, 2.1},
		{"Others", others, -1},
	}
}

// paperCell renders a paper-reported value, or "-" where the paper has none.
func paperCell(v float64) string {
	if v < 0 {
		return "-"
	}
	return fmt.Sprintf("%.1f", v)
}

var figure1Table = table[Figure1Row]{
	title: "Figure 1: Exposed latency breakdown, DCN on 64xH100 (model vs paper)",
	cols: []column[Figure1Row]{
		{"Component", "%-28s", func(r Figure1Row) any { return r.Component }},
		{"Model%", "%8.1f", func(r Figure1Row) any { return r.ModelPct }},
		{"Paper%", "%8s", func(r Figure1Row) any { return paperCell(r.PaperPct) }},
	},
}

// Figure5Row is one point of the collective-scalability curves.
type Figure5Row struct {
	Collective netsim.Collective
	GPUs       int
	ModelBusBW float64
	PaperBusBW float64
}

// Figure5 reproduces the NCCL weak-scaling measurement (A100, 8 GPUs/host;
// AllReduce @64MB, AlltoAll @256MB).
func Figure5() []Figure5Row {
	fabric := netsim.New(topology.A100)
	var rows []Figure5Row
	for _, coll := range []netsim.Collective{netsim.AllReduce, netsim.AlltoAll} {
		model := fabric.Figure5Curve(coll)
		paper := netsim.PaperFigure5(coll)
		for i := range model {
			rows = append(rows, Figure5Row{
				Collective: coll,
				GPUs:       model[i].GPUs,
				ModelBusBW: model[i].BusBW,
				PaperBusBW: paper[i].BusBW,
			})
		}
	}
	return rows
}

var figure5Table = table[Figure5Row]{
	title: "Figure 5: Achieved bus bandwidth vs scale (A100, 8 GPUs/host)",
	cols: []column[Figure5Row]{
		{"Collective", "%-14s", func(r Figure5Row) any { return r.Collective }},
		{"GPUs", "%6d", func(r Figure5Row) any { return r.GPUs }},
		{"Model GB/s", "%12.1f", func(r Figure5Row) any { return r.ModelBusBW }},
		{"Paper GB/s", "%12.1f", func(r Figure5Row) any { return r.PaperBusBW }},
		{"Err%", "%+8.1f", func(r Figure5Row) any { return (r.ModelBusBW - r.PaperBusBW) / r.PaperBusBW * 100 }},
	},
}

// Figure6Result is the parallelism-search CDF.
type Figure6Result struct {
	Results  []parallel.Result
	BestMesh parallel.Mesh
	// DataParallelIsBest is the paper's headline finding.
	DataParallelIsBest bool
}

// Figure6 reproduces the Alpa search over the dense part of DLRM on 64
// A100 GPUs, with the planner costing links at the given wire scheme
// (`dmt-bench -exp fig6 -compress <scheme>`; quant.None is the paper's
// figure). Compression shrinks pure DP's only communication — the gradient
// AllReduce — so the paper's data-parallelism-wins ranking must survive
// every scheme; the experiments tests assert it.
func Figure6(s quant.Scheme) Figure6Result {
	res := parallel.Search(s)
	return Figure6Result{
		Results:            res,
		BestMesh:           res[0].Mesh,
		DataParallelIsBest: res[0].Mesh.IsDataParallel(),
	}
}

// renderFigure6 renders the CDF summary: the three fastest meshes, the
// median and the slowest. The mesh and its latency share one column: the
// layout pads the latency to a fixed width after the unpadded mesh, so the
// rows are ragged and no per-column width describes them.
func renderFigure6(r Figure6Result) string {
	type pick struct {
		label string
		parallel.Result
	}
	n := len(r.Results)
	picks := []pick{{"fastest", r.Results[0]}, {"2nd", r.Results[1]}, {"3rd", r.Results[2]},
		{"median", r.Results[n/2]}, {"slowest", r.Results[n-1]}}
	return table[pick]{
		title: fmt.Sprintf("Figure 6: Parallelism search CDF, dense DLRM on 64xA100 (%d configs)\n"+
			"Best mesh: dp=%d tp=%d pp=%d (data parallel: %v)",
			n, r.BestMesh.DP, r.BestMesh.TP, r.BestMesh.PP, r.DataParallelIsBest),
		cols: []column[pick]{
			{"", "%-10s", func(p pick) any { return p.label }},
			{fmt.Sprintf("%-16s %12s", "mesh(dp,tp,pp)", "iter ms"), "%s", func(p pick) any {
				return fmt.Sprintf("(%d,%d,%d) %19.2f", p.Mesh.DP, p.Mesh.TP, p.Mesh.PP, p.Latency*1e3)
			}},
		},
	}.render(picks)
}

// SpeedupRow is one bar of Figures 10 and 11.
type SpeedupRow struct {
	Model   string
	Gen     string
	GPUs    int
	Speedup float64
	// PaperSpeedup < 0 means the paper has no data point (V100 beyond its
	// cluster limit).
	PaperSpeedup float64
}

// paperFigure10 holds the published bars, indexed [model][gen][scale].
var paperFigure10 = map[string]map[string][]float64{
	"DLRM": {
		"V100": {1.1, 1.2, 1.9, 1.9, -1, -1},
		"A100": {0.9, 1.1, 1.9, 1.5, 1.6, 1.7},
		"H100": {0.9, 0.9, 1.8, 1.8, 1.6, 1.7},
	},
	"DCN": {
		"V100": {1.9, 1.8, 1.7, 1.2, -1, -1},
		"A100": {1.4, 1.4, 1.8, 1.3, 1.2, 1.3},
		"H100": {1.1, 1.1, 1.6, 1.2, 1.3, 1.4},
	},
}

// dmtSpeedups is the grid Figures 10 and 11 share: DMT's modeled speedup
// over the given system at every generation and scale the paper ran, next
// to the published bar.
func dmtSpeedups(spec perfmodel.ModelSpec, over perfmodel.System, paper map[string][]float64) []SpeedupRow {
	var rows []SpeedupRow
	for _, gen := range topology.Generations() {
		for si, gpus := range gpuScales {
			if gen.Name == "V100" && gpus > v100MaxGPUs {
				continue
			}
			c := topology.NewCluster(gen, gpus)
			rows = append(rows, SpeedupRow{
				Model: spec.Name, Gen: gen.Name, GPUs: gpus,
				Speedup: perfmodel.Speedup(
					perfmodel.DefaultConfig(spec, c, over),
					perfmodel.DefaultConfig(spec, c, perfmodel.DMT)),
				PaperSpeedup: paper[gen.Name][si],
			})
		}
	}
	return rows
}

// Figure10 reproduces the end-to-end DMT speedups over the Strong Baseline
// across generations and scales.
func Figure10() []SpeedupRow {
	var rows []SpeedupRow
	for _, spec := range []perfmodel.ModelSpec{perfmodel.DLRMSpec(), perfmodel.DCNSpec()} {
		rows = append(rows, dmtSpeedups(spec, perfmodel.Baseline, paperFigure10[spec.Name])...)
	}
	return rows
}

// paperFigure11 holds the TM-over-SPTT bars (DLRM).
var paperFigure11 = map[string][]float64{
	"V100": {1.4, 1.3, 1.3, 1.4, -1, -1},
	"A100": {1.3, 1.2, 1.2, 1.3, 1.2, 1.2},
	"H100": {1.2, 1.2, 1.2, 1.2, 1.2, 1.2},
}

// Figure11 reproduces the tower-module-over-SPTT ablation on DLRM.
func Figure11() []SpeedupRow {
	return dmtSpeedups(perfmodel.DLRMSpec(), perfmodel.SPTT, paperFigure11)
}

// speedupTable renders Figure 10/11-style speedup grids.
func speedupTable(title string) table[SpeedupRow] {
	return table[SpeedupRow]{
		title: title,
		cols: []column[SpeedupRow]{
			{"Model", "%-6s", func(r SpeedupRow) any { return r.Model }},
			{"GPU", "%-6s", func(r SpeedupRow) any { return r.Gen }},
			{"Scale", "%6d", func(r SpeedupRow) any { return r.GPUs }},
			{"Model×", "%10.2f", func(r SpeedupRow) any { return r.Speedup }},
			{"Paper×", "%10s", func(r SpeedupRow) any { return paperCell(r.PaperSpeedup) }},
		},
	}
}

// Figure12Row is one bar of the compression-ratio ablation.
type Figure12Row struct {
	Gen          string
	CR           float64
	Speedup      float64 // DMT 8T over SPTT
	PaperSpeedup float64
}

// paperFigure12 holds the published bars per generation and CR.
var paperFigure12 = map[string][]float64{
	"V100": {1.3, 1.7, 1.9, 2.0},
	"A100": {1.2, 1.4, 1.6, 1.7},
	"H100": {1.2, 1.4, 1.5, 1.6},
}

// Figure12 reproduces the effect of compression ratio on DMT 8T-DLRM's
// speedup over SPTT (64 GPUs: 8 hosts, 8 towers).
func Figure12() []Figure12Row {
	spec := perfmodel.DLRMSpec()
	crs := []float64{2, 4, 8, 16}
	var rows []Figure12Row
	for _, gen := range topology.Generations() {
		c := topology.NewCluster(gen, 64)
		sptt := perfmodel.DefaultConfig(spec, c, perfmodel.SPTT)
		for i, cr := range crs {
			dmt := perfmodel.DefaultConfig(spec, c, perfmodel.DMT)
			dmt.CompressionRatio = cr
			rows = append(rows, Figure12Row{
				Gen: gen.Name, CR: cr,
				Speedup:      perfmodel.Speedup(sptt, dmt),
				PaperSpeedup: paperFigure12[gen.Name][i],
			})
		}
	}
	return rows
}

var figure12Table = table[Figure12Row]{
	title: "Figure 12: Compression ratio vs speedup of DMT 8T-DLRM over SPTT (64 GPUs)",
	cols: []column[Figure12Row]{
		{"GPU", "%-6s", func(r Figure12Row) any { return r.Gen }},
		{"CR", "%6.0f", func(r Figure12Row) any { return r.CR }},
		{"Model×", "%10.2f", func(r Figure12Row) any { return r.Speedup }},
		{"Paper×", "%10.1f", func(r Figure12Row) any { return r.PaperSpeedup }},
	},
}

// Figure13ModelResult compares perfmodel component latencies of DCN and
// DMT-DCN on 64×H100 against the paper's Figure 13 bars. (The MEASURED
// component-latency table — the comm runtime driven by the netsim cost
// model — is Figure13 in fabric.go.)
type Figure13ModelResult struct {
	DCN, DMTDCN                        perfmodel.Breakdown
	ComputeImprovement, EmbImprovement float64
}

// Figure13Model reproduces the paper's component-latency comparison from
// the closed-form performance model.
func Figure13Model() Figure13ModelResult {
	c := topology.NewCluster(topology.H100, 64)
	spec := perfmodel.DCNSpec()
	base := perfmodel.Iterate(perfmodel.DefaultConfig(spec, c, perfmodel.Baseline))
	dmt := perfmodel.Iterate(perfmodel.DefaultConfig(spec, c, perfmodel.DMT))
	r := Figure13ModelResult{DCN: base, DMTDCN: dmt}
	r.ComputeImprovement = base.Compute / dmt.Compute
	if dmt.ExposedEmb > 0 {
		r.EmbImprovement = base.ExposedEmb / dmt.ExposedEmb
	}
	return r
}

// renderFigure13Model renders the two systems' component latencies in ms
// with the paper's and the model's improvement factors under them.
func renderFigure13Model(r Figure13ModelResult) string {
	type system struct {
		name string
		perfmodel.Breakdown
	}
	return table[system]{
		title: "Figure 13: Component latency, DCN vs DMT-DCN on 64xH100 (ms)",
		cols: []column[system]{
			{"", "%-10s", func(s system) any { return s.name }},
			{"Compute", "%10.1f", func(s system) any { return s.Compute * 1e3 }},
			{"EmbComm", "%10.1f", func(s system) any { return s.ExposedEmb * 1e3 }},
			{"DenseSync", "%10.1f", func(s system) any { return s.ExposedDense * 1e3 }},
			{"Others", "%10.1f", func(s system) any { return s.Others * 1e3 }},
		},
		foot: []string{
			"paper:     compute 29.4 -> 21.8 (1.4x), emb 11.5 -> 2.5 (4.6x)",
			fmt.Sprintf("model:     compute %.1f -> %.1f (%.1fx), emb %.1f -> %.1f (%.1fx)",
				r.DCN.Compute*1e3, r.DMTDCN.Compute*1e3, r.ComputeImprovement,
				r.DCN.ExposedEmb*1e3, r.DMTDCN.ExposedEmb*1e3, r.EmbImprovement),
		},
	}.render([]system{{"DCN", r.DCN}, {"DMT-DCN", r.DMTDCN}})
}

// QuantXLRMResult is the §6 quantization discussion: FP8-quantized flat
// XLRM versus quantized DMT-XLRM on 1024 H100 GPUs.
type QuantXLRMResult struct {
	Speedup      float64
	PaperSpeedup float64 // "up to 1.2X"
}

// QuantXLRM reproduces the §6 comparison.
func QuantXLRM() QuantXLRMResult {
	c := topology.NewCluster(topology.H100, 1024)
	spec := perfmodel.XLRMSpec()
	base := perfmodel.DefaultConfig(spec, c, perfmodel.Baseline)
	base.EmbBytesPerElem, base.GradBytesPerElem = 1, 1
	dmt := perfmodel.DefaultConfig(spec, c, perfmodel.DMT)
	dmt.EmbBytesPerElem, dmt.GradBytesPerElem = 1, 1
	return QuantXLRMResult{
		Speedup:      perfmodel.Speedup(base, dmt),
		PaperSpeedup: 1.2,
	}
}

func renderQuantXLRM(r QuantXLRMResult) string {
	return fmt.Sprintf("§6: quantized DMT-XLRM over FP8 XLRM on 1024xH100: %.2fx (paper: up to %.1fx)\n",
		r.Speedup, r.PaperSpeedup)
}

// TowerHostsAblationRow quantifies the §3.1.3 K-host-towers trade-off:
// assigning each tower K hosts shrinks the peer world by K× more but grows
// the intra-tower collective beyond NVLink.
type TowerHostsAblationRow struct {
	HostsPerTower int
	IterationMS   float64
}

// TowerHostsAblation sweeps K on DLRM over 512 A100 GPUs.
func TowerHostsAblation() []TowerHostsAblationRow {
	c := topology.NewCluster(topology.A100, 512)
	spec := perfmodel.DLRMSpec()
	var rows []TowerHostsAblationRow
	for _, k := range []int{1, 2, 4, 8} {
		cfg := perfmodel.DefaultConfig(spec, c, perfmodel.DMT)
		cfg.Towers = c.Hosts / k
		rows = append(rows, TowerHostsAblationRow{
			HostsPerTower: k,
			IterationMS:   perfmodel.Iterate(cfg).Total() * 1e3,
		})
	}
	return rows
}

var towerHostsTable = table[TowerHostsAblationRow]{
	title: "Ablation (§3.1.3): hosts per tower, DMT-DLRM on 512xA100",
	cols: []column[TowerHostsAblationRow]{
		{"hosts/tower", "%14d", func(r TowerHostsAblationRow) any { return r.HostsPerTower }},
		{"iter ms", "%12.2f", func(r TowerHostsAblationRow) any { return r.IterationMS }},
	},
}
