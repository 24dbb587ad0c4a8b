// Command dmt-bench regenerates the paper's throughput-side tables and
// figures: the closed-form performance-model reproductions, and the measured
// experiments that run the distributed training engines and read their
// byte counters or a simulated fabric's virtual clock. The experiments come
// from the registry in internal/experiments; `dmt-bench -list` prints each
// name with a one-line description and the paper reference. Every table is
// deterministic; the engines' wall-clock step rates are the root
// BenchmarkDistributedStep's (`go test -run '^$' -bench DistributedStep .`).
//
// Usage:
//
//	dmt-bench                          # run everything
//	dmt-bench -exp fig10               # one experiment
//	dmt-bench -exp train               # wire-scheme sweep: fp32/fp16/int8/int4 loss and bytes
//	dmt-bench -exp fig13 -gen h100     # measured component latencies on a simulated fabric
//	dmt-bench -list                    # list experiments
//
// -gen picks the hardware generation (v100, a100, h100) for the experiments
// that simulate a fabric (fig13, embtier): they run the training
// engines with the comm runtime in netsim-driven latency mode and print
// deterministic virtual-clock tables.
//
// -compress selects the wire scheme (fp32, fp16, int8, int4) `fig6` costs
// the parallelism search's links at. `train` always sweeps all four.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"dmt/internal/experiments"
	"dmt/internal/quant"
	"dmt/internal/topology"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run regenerates the experiments the flags in args select, prints each
// table to stdout, and returns the exit code: 2 for a bad flag, wire
// scheme, hardware generation or experiment name, 1 when an experiment
// fails.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("dmt-bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	exp := fs.String("exp", "", "experiment to run (default: all)")
	list := fs.Bool("list", false, "list experiment names and exit")
	scheme := fs.String("compress", "fp32", "wire scheme for fig6 (fp32, fp16, int8, int4)")
	genName := fs.String("gen", "a100", "hardware generation for the simulated fabric (v100, a100, h100)")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}

	var opts experiments.Options
	var err error
	if opts.Compress, err = quant.ParseScheme(*scheme); err != nil {
		fmt.Fprintf(stderr, "dmt-bench: %v\n", err)
		return 2
	}
	if opts.Gen, err = topology.ByName(strings.ToUpper(*genName)); err != nil {
		fmt.Fprintf(stderr, "dmt-bench: %v\n", err)
		return 2
	}

	exps := experiments.Select(experiments.Model, experiments.Measured)
	if *list {
		fmt.Fprint(stdout, experiments.List(exps))
		return 0
	}
	if *exp != "" {
		e, ok := experiments.Lookup(exps, *exp)
		if !ok {
			fmt.Fprintf(stderr, "dmt-bench: unknown experiment %q (use -list)\n", *exp)
			return 2
		}
		exps = []experiments.Experiment{e}
	}
	for _, e := range exps {
		out, err := e.Run(opts)
		if err != nil {
			fmt.Fprintf(stderr, "dmt-bench: %v\n", err)
			return 1
		}
		fmt.Fprint(stdout, out)
		if *exp == "" {
			fmt.Fprintln(stdout)
		}
	}
	return 0
}
