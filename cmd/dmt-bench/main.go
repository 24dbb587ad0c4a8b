// Command dmt-bench regenerates the paper's throughput-side tables and
// figures: the closed-form performance-model reproductions, and the measured
// experiments that run the distributed training engines on this machine or
// on a simulated fabric. The experiments come from the registry in
// internal/experiments; `dmt-bench -list` prints each name with a one-line
// description and the paper reference.
//
// Usage:
//
//	dmt-bench                          # run everything
//	dmt-bench -exp fig10               # one experiment
//	dmt-bench -exp train -compress fp16  # measured training over a quantized wire
//	dmt-bench -exp train -overlap      # add the overlapped engine row
//	dmt-bench -exp fig13 -gen h100     # measured component latencies on a simulated fabric
//	dmt-bench -list                    # list experiments
//
// -gen picks the hardware generation (v100, a100, h100) for the experiments
// that simulate a fabric (fig13, pipeline, embtier): they run the training
// engines with the comm runtime in netsim-driven latency mode and print
// deterministic virtual-clock tables.
//
// -compress selects the wire scheme (fp32, fp16, int8, int4) for the
// experiments that model or measure compressed communication: `train` runs
// the engines with quantized collectives (gradient AllReduce with error
// feedback, cross-host embedding hops) and appends the scheme-vs-fp32
// table; `fig6` costs the parallelism search over compressed links.
//
// -overlap and -pipeline each add a row to `train`: the overlapped schedule
// (SPTT peer AlltoAll hidden behind the bottom-MLP forward, gradient
// buckets behind the backward), and its cross-step extension (step N's
// buckets completing behind step N+1's SPTT forward). The trajectory stays
// bitwise identical to the blocking engines; the exposed/hidden columns
// show what the schedule moved off the critical path.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"dmt/internal/experiments"
	"dmt/internal/quant"
	"dmt/internal/topology"
)

func main() {
	exp := flag.String("exp", "", "experiment to run (default: all)")
	list := flag.Bool("list", false, "list experiment names and exit")
	scheme := flag.String("compress", "fp32", "wire scheme for train/fig6 (fp32, fp16, int8, int4)")
	genName := flag.String("gen", "a100", "hardware generation for the simulated fabric (v100, a100, h100)")
	var opts experiments.Options
	flag.BoolVar(&opts.Overlap, "overlap", false, "measure the overlapped engine in the train experiment")
	flag.BoolVar(&opts.Pipeline, "pipeline", false, "measure the cross-step pipelined engine in the train experiment")
	flag.Parse()

	fail := func(code int, err error) {
		fmt.Fprintf(os.Stderr, "dmt-bench: %v\n", err)
		os.Exit(code)
	}
	var err error
	if opts.Compress, err = quant.ParseScheme(*scheme); err != nil {
		fail(2, err)
	}
	if opts.Gen, err = topology.ByName(strings.ToUpper(*genName)); err != nil {
		fail(2, err)
	}

	exps := experiments.Select(experiments.Model, experiments.Measured)
	if *list {
		fmt.Print(experiments.List(exps))
		return
	}
	if *exp != "" {
		e, ok := experiments.Lookup(exps, *exp)
		if !ok {
			fail(2, fmt.Errorf("unknown experiment %q (use -list)", *exp))
		}
		exps = []experiments.Experiment{e}
	}
	for _, e := range exps {
		out, err := e.Run(opts)
		if err != nil {
			fail(1, err)
		}
		fmt.Print(out)
		if *exp == "" {
			fmt.Println()
		}
	}
}
