// Command dmt-partition runs the Tower Partitioner standalone on the
// synthetic workload: it derives the feature-interaction matrix, embeds the
// features into the plane with the learned MDS step, clusters them with
// constrained K-Means, and prints the assignment plus quality metrics
// against the naive and greedy baselines.
//
// Usage:
//
//	dmt-partition -towers 8 -strategy coherent
//	dmt-partition -towers 4 -strategy diverse -features 26
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"dmt/internal/data"
	"dmt/internal/models"
	"dmt/internal/partition"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run partitions the workload the flags in args describe, prints the
// report to stdout, and returns the exit code: 2 for a bad flag, 1 when
// the partitioner fails.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("dmt-partition", flag.ContinueOnError)
	fs.SetOutput(stderr)
	towers := fs.Int("towers", 8, "number of towers to create")
	strategyName := fs.String("strategy", "coherent", "coherent | diverse")
	features := fs.Int("features", 24, "number of sparse features in the workload")
	seed := fs.Uint64("seed", 1, "workload and partitioner seed")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}

	var strategy partition.Strategy
	switch *strategyName {
	case "coherent":
		strategy = partition.Coherent
	case "diverse":
		strategy = partition.Diverse
	default:
		fmt.Fprintf(stderr, "dmt-partition: unknown strategy %q\n", *strategyName)
		return 2
	}
	if *features < 1 {
		fmt.Fprintf(stderr, "dmt-partition: -features must be at least 1, got %d\n", *features)
		return 2
	}
	if *towers < 1 || *towers > *features {
		fmt.Fprintf(stderr, "dmt-partition: -towers must be in [1,%d] (one nonempty tower per feature group), got %d\n",
			*features, *towers)
		return 2
	}

	cfg := data.CriteoLike(*seed)
	cfg.Cardinalities = make([]int, *features)
	cfg.HotSizes = make([]int, *features)
	for i := range cfg.Cardinalities {
		cfg.Cardinalities[i] = 128
		cfg.HotSizes[i] = 1
	}
	gen := data.NewGenerator(cfg)

	tp := partition.NewTP(strategy, *seed+1)
	res, err := tp.PartitionEmbeddings(gen.LatentBatch(0, 256), *towers)
	if err != nil {
		fmt.Fprintf(stderr, "dmt-partition: %v\n", err)
		return 1
	}

	fmt.Fprintf(stdout, "Tower Partitioner (%s strategy, %d towers, %d features)\n\n",
		strategy, *towers, *features)
	for t, g := range res.Groups {
		fmt.Fprintf(stdout, "  tower %2d (host %2d): features %v\n", t, t, g)
	}

	within, cross := partition.WithinCrossAffinity(res.Interaction, res.Groups)
	nWithin, nCross := partition.WithinCrossAffinity(res.Interaction,
		models.RoundRobinTowers(*towers, *features))
	greedy := partition.GreedyCoherent(res.Interaction, *towers, (*features+*towers-1)/(*towers))
	gWithin, gCross := partition.WithinCrossAffinity(res.Interaction, greedy)

	fmt.Fprintf(stdout, "\n%-22s %12s %12s\n", "Assignment", "within-aff", "cross-aff")
	fmt.Fprintf(stdout, "%-22s %12.4f %12.4f\n", "TP ("+strategy.String()+")", within, cross)
	fmt.Fprintf(stdout, "%-22s %12.4f %12.4f\n", "naive strided", nWithin, nCross)
	fmt.Fprintf(stdout, "%-22s %12.4f %12.4f\n", "greedy graph-cut", gWithin, gCross)

	minSz, maxSz, ratio := partition.BalanceStats(res.Groups)
	fmt.Fprintf(stdout, "\nbalance: group sizes %d..%d (max/min %.2f); MDS stress %.4f -> %.4f over %d steps\n",
		minSz, maxSz, ratio, res.Stress[0], res.Stress[len(res.Stress)-1], len(res.Stress))
	agree := partition.PairAgreement(res.Groups, gen.TrueGroups(), *features)
	fmt.Fprintf(stdout, "recovery of the workload's planted groups (pair F1): %.3f\n", agree)
	return 0
}
