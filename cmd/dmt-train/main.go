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
	"flag"
	"fmt"
	"os"
	"time"

	"dmt/internal/experiments"
)

func main() {
	exp := flag.String("exp", "", "experiment to run (default: all)")
	profileName := flag.String("profile", "quick", "smoke | quick | full")
	list := flag.Bool("list", false, "list experiment names and exit")
	flag.Parse()

	exps := experiments.Select(experiments.Quality)
	if *list {
		fmt.Print(experiments.List(exps))
		return
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
		fmt.Fprintf(os.Stderr, "dmt-train: unknown profile %q\n", *profileName)
		os.Exit(2)
	}

	if *exp != "" {
		e, ok := experiments.Lookup(exps, *exp)
		if !ok {
			fmt.Fprintf(os.Stderr, "dmt-train: unknown experiment %q (use -list)\n", *exp)
			os.Exit(2)
		}
		exps = []experiments.Experiment{e}
	}
	for _, e := range exps {
		start := time.Now()
		out, err := e.Run(opts)
		if err != nil {
			fmt.Fprintf(os.Stderr, "dmt-train: %v\n", err)
			os.Exit(1)
		}
		fmt.Print(out)
		fmt.Printf("[%s profile, %.1fs]\n\n", opts.Profile.Name, time.Since(start).Seconds())
	}
}
