// Command dmt-serve runs the online serving benchmark: it stands up the
// micro-batching inference server over a trained-shape model and drives it
// with the built-in closed-loop, zipf-skewed load generator, reporting
// QPS, latency percentiles, batch occupancy, and cache hit rates for the
// unbatched, micro-batched, and cached serving modes side by side.
//
// With -cluster it switches to the deterministic discrete-event fleet
// simulator instead: open-loop arrivals with SLO classes replayed against
// growing replica counts, emitting the capacity-planning table (how many
// replicas does each arrival rate need to hold every class's p99?).
//
// Usage:
//
//	dmt-serve                                  # default comparison table
//	dmt-serve -requests 20000 -concurrency 64  # heavier load
//	dmt-serve -cluster                         # simulated capacity-planning sweep
//	dmt-serve -cluster -policy least-loaded -arrival gamma -seed 7
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
	"time"

	"dmt/internal/cluster"
	"dmt/internal/data"
	"dmt/internal/experiments"
	"dmt/internal/perfmodel"
	"dmt/internal/serve"
	"dmt/internal/topology"
	"dmt/internal/workload"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run serves or simulates as the flags in args select, prints the table to
// stdout, and returns the exit code: 2 for a bad flag, routing policy,
// arrival process, -rates entry, -towers or -unique, before anything runs;
// 1 when a run fails.
func run(args []string, stdout, stderr io.Writer) int {
	def := experiments.DefaultServing()
	fs := flag.NewFlagSet("dmt-serve", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		requests    = fs.Int("requests", def.Requests, "requests per (model, mode) cell")
		concurrency = fs.Int("concurrency", def.Concurrency, "closed-loop client goroutines")
		unique      = fs.Int("unique", def.UniqueSamples, "distinct samples the zipf load draws from")
		zipfS       = fs.Float64("zipf", def.ZipfS, "zipf skew (>1); higher = hotter head")
		maxBatch    = fs.Int("max-batch", def.MaxBatch, "micro-batch flush size")
		maxWait     = fs.Duration("max-wait", def.MaxWait, "micro-batch flush timeout")
		cacheSize   = fs.Int("cache", def.CacheEntries, "entries per cache (embedding and tower)")
		towers      = fs.Int("towers", def.Towers, "DMT tower count")

		clusterMode = fs.Bool("cluster", false, "run the discrete-event cluster simulator instead of the real server")
		policy      = fs.String("policy", "cache-affinity", "cluster routing policy: round-robin, least-loaded, cache-affinity")
		arrival     = fs.String("arrival", "poisson", "cluster arrival process: poisson, gamma, weibull")
		shape       = fs.Float64("shape", 2, "gamma/weibull arrival shape")
		rates       = fs.String("rates", "", "comma-separated arrival rates (req/s) to sweep (default profile's)")
		maxReplicas = fs.Int("max-replicas", 8, "largest fleet size the sweep tries")
		admit       = fs.Float64("admit", 0, "token-bucket admission rate per replica (req/s, 0 = off)")
		seed        = fs.Uint64("seed", 1, "cluster workload seed")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	if _, err := cluster.ParsePolicy(*policy); err != nil {
		fmt.Fprintf(stderr, "dmt-serve: %v\n", err)
		return 2
	}
	dist, err := workload.ParseDist(*arrival)
	if err != nil {
		fmt.Fprintf(stderr, "dmt-serve: %v\n", err)
		return 2
	}

	if *clusterMode {
		p := experiments.DefaultCluster()
		p.Towers = *towers
		p.ZipfS = *zipfS
		p.MaxBatch = *maxBatch
		p.CacheEntries = *cacheSize
		// -max-wait's default is the serving profile's 1 ms, not the cluster
		// profile's window, so only a -max-wait the user gave overrides it.
		fs.Visit(func(f *flag.Flag) {
			if f.Name == "max-wait" {
				p.MaxWait = *maxWait
			}
		})
		p.Policy = *policy
		p.Shape = *shape
		p.MaxReplicas = *maxReplicas
		p.AdmitPerRep = *admit
		p.Seed = *seed
		p.Arrival = dist
		if *rates != "" {
			p.Rates = nil
			for _, s := range strings.Split(*rates, ",") {
				r, err := strconv.ParseFloat(strings.TrimSpace(s), 64)
				if err != nil || r <= 0 {
					fmt.Fprintf(stderr, "dmt-serve: bad -rates entry %q\n", s)
					return 2
				}
				p.Rates = append(p.Rates, r)
			}
		}
		res, err := experiments.ClusterCapacity(p)
		if err != nil {
			fmt.Fprintf(stderr, "dmt-serve: %v\n", err)
			return 1
		}
		fmt.Fprint(stdout, experiments.FormatCluster(res))
		return 0
	}

	cfg := data.CriteoLike(1)
	if *towers < 1 || *towers > cfg.NumSparse() {
		fmt.Fprintf(stderr, "dmt-serve: -towers must be in [1,%d] (one nonempty tower per feature group), got %d\n",
			cfg.NumSparse(), *towers)
		return 2
	}
	if *unique < 1 {
		fmt.Fprintf(stderr, "dmt-serve: -unique must be positive, got %d\n", *unique)
		return 2
	}
	p := experiments.ServingProfile{
		Requests:      *requests,
		Concurrency:   *concurrency,
		UniqueSamples: *unique,
		ZipfS:         *zipfS,
		MaxBatch:      *maxBatch,
		MaxWait:       *maxWait,
		CacheEntries:  *cacheSize,
		Towers:        *towers,
	}

	fmt.Fprintf(stdout, "workload: %d dense + %d sparse features, %d unique samples, zipf s=%.2f\n",
		cfg.NumDense, cfg.NumSparse(), p.UniqueSamples, p.ZipfS)
	fmt.Fprintf(stdout, "server: max-batch=%d max-wait=%v cache=%d entries, %d clients, %d requests/cell\n\n",
		p.MaxBatch, p.MaxWait, p.CacheEntries, p.Concurrency, p.Requests)

	rows, err := experiments.ServingTable(p)
	if err != nil {
		fmt.Fprintf(stderr, "dmt-serve: %v\n", err)
		return 1
	}
	fmt.Fprint(stdout, experiments.FormatServing(rows))

	// The headline DMT numbers: batching speedup and cache speedup.
	var unbatched, batched, cached *experiments.ServingRow
	for i := range rows {
		r := &rows[i]
		if r.Model == fmt.Sprintf("DMT %dT-DLRM", *towers) {
			switch r.Mode {
			case "unbatched":
				unbatched = r
			case "microbatch":
				batched = r
			case "microbatch+cache":
				cached = r
			}
		}
	}
	if unbatched != nil && batched != nil && cached != nil {
		fmt.Fprintf(stdout, "\nDMT micro-batching speedup: %.2fx  (+caches: %.2fx, tower hit rate %.1f%%)\n",
			batched.QPS/unbatched.QPS, cached.QPS/unbatched.QPS, cached.Tower.HitRate()*100)
	}

	// The same cost model the cluster simulator runs on, for the modeled
	// counterpart of the measured numbers above.
	cost := serve.NewCostModel(topology.A100, perfmodel.DLRMSpec(), *towers)
	fmt.Fprintf(stdout, "\nmodeled (%s):\n  full batch of %d: forward %v, cold embedding fetch %v\n",
		cost, p.MaxBatch,
		cost.ForwardTime(p.MaxBatch, 0).Round(time.Microsecond),
		cost.EmbFetchTime(p.MaxBatch*cost.EmbTables).Round(time.Microsecond))
	return 0
}
