package experiments

import (
	"fmt"
	"strings"

	"dmt/internal/perfmodel"
	"dmt/internal/quant"
	"dmt/internal/topology"
	"dmt/internal/trace"
)

// Kind says what an experiment's numbers are made of, and thereby which
// command owns it.
type Kind int

const (
	// Model experiments evaluate the closed-form performance model: pure
	// functions of constants, milliseconds each (cmd/dmt-bench).
	Model Kind = iota
	// Measured experiments run the distributed training engines and read
	// their byte counters and losses (train) or a simulated fabric's
	// virtual clock (cmd/dmt-bench); none reads the wall clock.
	Measured
	// Quality experiments train models at Options.Profile (cmd/dmt-train).
	Quality
	// Serving experiments drive the real micro-batching server or the
	// discrete-event fleet simulator (cmd/dmt-serve).
	Serving
)

// Options carries the command-line choices an experiment may read; each
// experiment ignores the ones that do not apply to it.
type Options struct {
	Gen      topology.Generation // simulated fabric (fig13, embtier)
	Compress quant.Scheme        // wire scheme the fig6 planner costs links at
	Profile  Profile             // fidelity of the Quality experiments
}

// Experiment is one registered table or figure: its command-line name, a
// one-line description with the paper reference, and the function that
// regenerates and renders it.
type Experiment struct {
	Name string
	Kind Kind
	Doc  string
	Run  func(Options) (string, error)
}

// static, trained and onFabric adapt the three shapes an experiment comes
// in — a pure function of constants, a function of the quality profile, a
// training grid on a simulated fabric plus its renderer — to Experiment.Run.
func static(f func() string) func(Options) (string, error) {
	return func(Options) (string, error) { return f(), nil }
}

func trained(f func(Profile) string) func(Options) (string, error) {
	return func(o Options) (string, error) { return f(o.Profile), nil }
}

func onFabric(grid func(topology.Generation) (Sweep, error), render func(Sweep) string) func(Options) (string, error) {
	return func(o Options) (string, error) {
		s, err := grid(o.Gen)
		if err != nil {
			return "", err
		}
		return render(s), nil
	}
}

// registry is the one ordered list of experiments; the order is each
// command's run-everything presentation order.
var registry = []Experiment{
	{"table1", Model, "Table 1: hardware generations — compute outpaces network",
		static(func() string { return table1Table.render(Table1()) })},
	{"fig1", Model, "Figure 1: exposed-latency breakdown, DCN on 64xH100",
		static(func() string { return figure1Table.render(Figure1()) })},
	{"fig5", Model, "Figure 5: AllReduce/AlltoAll bus bandwidth vs scale (A100)",
		static(func() string { return figure5Table.render(Figure5()) })},
	{"fig6", Model, "Figure 6: parallelism-search CDF, dense DLRM on 64xA100; -compress costs quantized links",
		func(o Options) (string, error) { return renderFigure6(Figure6(o.Compress)), nil }},
	{"fig10", Model, "Figure 10: DMT speedup over the Strong Baseline, by generation and scale",
		static(func() string {
			return speedupTable("Figure 10: Speedup of DMT over Strong Baseline").render(Figure10())
		})},
	{"fig11", Model, "Figure 11: tower modules over SPTT alone (DLRM)",
		static(func() string {
			return speedupTable("Figure 11: Speedup of Tower Modules over SPTT (DLRM)").render(Figure11())
		})},
	{"fig12", Model, "Figure 12: compression ratio vs DMT 8T-DLRM speedup over SPTT",
		static(func() string { return figure12Table.render(Figure12()) })},
	{"fig13model", Model, "Figure 13 (closed form): component latency, DCN vs DMT-DCN on 64xH100",
		static(func() string { return renderFigure13Model(Figure13Model()) })},
	{"fig13", Measured, "Figure 13 (measured): engines on the -gen simulated fabric, fp32/fp16 x blocking/pipeline",
		onFabric(Figure13, renderFigure13)},
	{"embtier", Measured, "disaggregated embedding tier: local vs 1/2/4 servers, hot-ID cache off/on, on the -gen fabric",
		onFabric(EmbTier, renderEmbTier)},
	{"quant", Model, "§6: quantized DMT-XLRM over FP8 XLRM on 1024xH100",
		static(func() string { return renderQuantXLRM(QuantXLRM()) })},
	{"khost", Model, "§3.1.3 ablation: hosts per tower, DMT-DLRM on 512xA100",
		static(func() string { return towerHostsTable.render(TowerHostsAblation()) })},
	{"train", Measured, "wire-scheme sweep, rank-parallel engine: fp32/fp16/int8/int4 loss and cross-host bytes",
		func(Options) (string, error) {
			s, err := WireSchemes(DefaultTraining())
			if err != nil {
				return "", err
			}
			return renderWireSchemes(s), nil
		}},
	{"timeline", Model, "Figure 4/7-style iteration timelines, Baseline vs DMT (DCN on 64xH100)",
		static(func() string {
			c := topology.NewCluster(topology.H100, 64)
			return trace.Compare(
				perfmodel.DefaultConfig(perfmodel.DCNSpec(), c, perfmodel.Baseline),
				perfmodel.DefaultConfig(perfmodel.DCNSpec(), c, perfmodel.DMT), 64)
		})},

	{"table2", Quality, "Table 2: Baseline vs Strong Baseline recipes",
		trained(func(p Profile) string { return table2Table.render(Table2(p)) })},
	{"table3", Quality, "Table 3: SPTT is AUC-neutral (bit-identical dataflow)",
		trained(func(p Profile) string { return qualityTable("Table 3: SPTT AUC-neutrality").render(Table3(p)) })},
	{"table4", Quality, "Table 4: DMT tower-count sweep vs the Strong Baseline",
		trained(func(p Profile) string { return qualityTable("Table 4: DMT tower-count sweep").render(Table4(p)) })},
	{"table5", Quality, "Table 5: AUC vs compression ratio, DMT 8T-DLRM",
		trained(func(p Profile) string { return table5Table.render(Table5(p)) })},
	{"table6", Quality, "Table 6: Tower Partitioner vs naive assignment (Mann-Whitney U)",
		trained(func(p Profile) string { return table6Table.render(Table6(p)) })},
	{"fig9", Quality, "Figure 9: TP similarity matrix and 2D embedding, from oracle latents",
		trained(func(p Profile) string { return renderFigure9(Figure9(p)) })},
	{"fig9learned", Quality, "Figure 9 from probe-trained embeddings (nearly flat at in-process budgets)",
		trained(func(p Profile) string { return renderFigure9(Figure9Learned(p)) })},
	{"xlrm", Quality, "§5.2.2: XLRM-mini normalized entropy, category towers vs baseline",
		trained(func(p Profile) string { return renderXLRM(XLRMQuality(p)) })},
	{"quantq", Quality, "§6 quality side: embedding-comm precision vs AUC/NE",
		trained(func(p Profile) string { return quantQualityTable.render(QuantQuality(p)) })},

	{"serving", Serving, "real server: unbatched vs micro-batched vs cached, DLRM and DMT-DLRM (dmt-serve)",
		func(Options) (string, error) {
			rows, err := ServingTable(DefaultServing())
			if err != nil {
				return "", err
			}
			return FormatServing(rows), nil
		}},
	{"cluster", Serving, "fleet simulator: replicas needed per arrival rate to hold every SLO class (dmt-serve -cluster)",
		func(Options) (string, error) {
			res, err := ClusterCapacity(DefaultCluster())
			if err != nil {
				return "", err
			}
			return FormatCluster(res), nil
		}},
}

// All returns every registered experiment, in presentation order.
func All() []Experiment { return registry }

// Select returns the registered experiments of the given kinds, in
// presentation order.
func Select(kinds ...Kind) []Experiment {
	var out []Experiment
	for _, e := range registry {
		for _, k := range kinds {
			if e.Kind == k {
				out = append(out, e)
			}
		}
	}
	return out
}

// Lookup finds an experiment by name among exps.
func Lookup(exps []Experiment, name string) (Experiment, bool) {
	for _, e := range exps {
		if e.Name == name {
			return e, true
		}
	}
	return Experiment{}, false
}

// List renders the -list output: one "name  doc" line per experiment.
func List(exps []Experiment) string {
	var b strings.Builder
	for _, e := range exps {
		fmt.Fprintf(&b, "%-12s %s\n", e.Name, e.Doc)
	}
	return b.String()
}
