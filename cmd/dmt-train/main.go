// Command dmt-train regenerates the paper's model-quality tables by
// training the reproduction's models on the synthetic CTR workload. The
// experiments come from the registry in internal/experiments; `dmt-train
// -list` prints each name with a one-line description and the paper
// reference.
//
// Usage:
//
//	dmt-train                         # everything at the quick profile
//	dmt-train -exp table6 -profile full
//	dmt-train -list
//
// Profiles: smoke (seconds), quick (default, ~minutes), full (the paper's
// 9-repeat protocol; slowest).
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"dmt/internal/experiments"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run trains the experiments the flags in args select, prints each table
// to stdout, and returns the exit code: 2 for a bad flag, profile or
// experiment name, 1 when an experiment fails.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("dmt-train", flag.ContinueOnError)
	fs.SetOutput(stderr)
	exp := fs.String("exp", "", "experiment to run (default: all)")
	profileName := fs.String("profile", "quick", "smoke | quick | full")
	list := fs.Bool("list", false, "list experiment names and exit")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}

	exps := experiments.Select(experiments.Quality)
	if *list {
		fmt.Fprint(stdout, experiments.List(exps))
		return 0
	}

	var opts experiments.Options
	switch *profileName {
	case "smoke":
		opts.Profile = experiments.Smoke()
	case "quick":
		opts.Profile = experiments.Quick()
	case "full":
		opts.Profile = experiments.Full()
	default:
		fmt.Fprintf(stderr, "dmt-train: unknown profile %q\n", *profileName)
		return 2
	}

	if *exp != "" {
		e, ok := experiments.Lookup(exps, *exp)
		if !ok {
			fmt.Fprintf(stderr, "dmt-train: unknown experiment %q (use -list)\n", *exp)
			return 2
		}
		exps = []experiments.Experiment{e}
	}
	for _, e := range exps {
		start := time.Now()
		out, err := e.Run(opts)
		if err != nil {
			fmt.Fprintf(stderr, "dmt-train: %v\n", err)
			return 1
		}
		fmt.Fprint(stdout, out)
		fmt.Fprintf(stdout, "[%s profile, %.1fs]\n\n", opts.Profile.Name, time.Since(start).Seconds())
	}
	return 0
}
