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
//	dmt-serve -table                           # the experiments.ServingTable profile
//	dmt-serve -cluster                         # simulated capacity-planning sweep
//	dmt-serve -cluster -policy least-loaded -arrival gamma -seed 7
package main

import (
	"flag"
	"fmt"
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
	def := experiments.DefaultServing()
	var (
		requests    = flag.Int("requests", def.Requests, "requests per (model, mode) cell")
		concurrency = flag.Int("concurrency", def.Concurrency, "closed-loop client goroutines")
		unique      = flag.Int("unique", def.UniqueSamples, "distinct samples the zipf load draws from")
		zipfS       = flag.Float64("zipf", def.ZipfS, "zipf skew (>1); higher = hotter head")
		maxBatch    = flag.Int("max-batch", def.MaxBatch, "micro-batch flush size")
		maxWait     = flag.Duration("max-wait", def.MaxWait, "micro-batch flush timeout")
		cacheSize   = flag.Int("cache", def.CacheEntries, "entries per cache (embedding and tower)")
		towers      = flag.Int("towers", def.Towers, "DMT tower count")
		table       = flag.Bool("table", false, "run the experiments.ServingTable default profile and exit")

		clusterMode = flag.Bool("cluster", false, "run the discrete-event cluster simulator instead of the real server")
		policy      = flag.String("policy", "cache-affinity", "cluster routing policy: round-robin, least-loaded, cache-affinity")
		arrival     = flag.String("arrival", "poisson", "cluster arrival process: poisson, gamma, weibull")
		shape       = flag.Float64("shape", 2, "gamma/weibull arrival shape")
		rates       = flag.String("rates", "", "comma-separated arrival rates (req/s) to sweep (default profile's)")
		maxReplicas = flag.Int("max-replicas", 8, "largest fleet size the sweep tries")
		admit       = flag.Float64("admit", 0, "token-bucket admission rate per replica (req/s, 0 = off)")
		seed        = flag.Uint64("seed", 1, "cluster workload seed")
	)
	flag.Parse()

	if *clusterMode {
		p := experiments.DefaultCluster()
		p.Towers = *towers
		p.ZipfS = *zipfS
		p.MaxBatch = *maxBatch
		p.CacheEntries = *cacheSize
		// -max-wait's default is the serving profile's 1 ms, not the cluster
		// profile's window, so only a -max-wait the user gave overrides it.
		flag.Visit(func(f *flag.Flag) {
			if f.Name == "max-wait" {
				p.MaxWait = *maxWait
			}
		})
		p.Policy = *policy
		p.Shape = *shape
		p.MaxReplicas = *maxReplicas
		p.AdmitPerRep = *admit
		p.Seed = *seed
		if _, err := cluster.ParsePolicy(*policy); err != nil {
			fmt.Fprintf(os.Stderr, "dmt-serve: %v\n", err)
			os.Exit(2)
		}
		dist, err := workload.ParseDist(*arrival)
		if err != nil {
			fmt.Fprintf(os.Stderr, "dmt-serve: %v\n", err)
			os.Exit(2)
		}
		p.Arrival = dist
		if *rates != "" {
			p.Rates = nil
			for _, s := range strings.Split(*rates, ",") {
				r, err := strconv.ParseFloat(strings.TrimSpace(s), 64)
				if err != nil || r <= 0 {
					fmt.Fprintf(os.Stderr, "dmt-serve: bad -rates entry %q\n", s)
					os.Exit(2)
				}
				p.Rates = append(p.Rates, r)
			}
		}
		res, err := experiments.ClusterCapacity(p)
		if err != nil {
			fmt.Fprintf(os.Stderr, "dmt-serve: %v\n", err)
			os.Exit(1)
		}
		fmt.Print(experiments.FormatCluster(res))
		return
	}

	if *table {
		e, ok := experiments.Lookup(experiments.Select(experiments.Serving), "serving")
		if !ok {
			fmt.Fprintln(os.Stderr, "dmt-serve: the serving table is not registered")
			os.Exit(1)
		}
		out, err := e.Run(experiments.Options{})
		if err != nil {
			fmt.Fprintf(os.Stderr, "dmt-serve: %v\n", err)
			os.Exit(1)
		}
		fmt.Print(out)
		return
	}

	cfg := data.CriteoLike(1)
	if *towers < 1 || *towers > cfg.NumSparse() {
		fmt.Fprintf(os.Stderr, "dmt-serve: -towers must be in [1,%d] (one nonempty tower per feature group), got %d\n",
			cfg.NumSparse(), *towers)
		os.Exit(2)
	}
	if *unique < 1 {
		fmt.Fprintf(os.Stderr, "dmt-serve: -unique must be positive, got %d\n", *unique)
		os.Exit(2)
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

	fmt.Printf("workload: %d dense + %d sparse features, %d unique samples, zipf s=%.2f\n",
		cfg.NumDense, cfg.NumSparse(), p.UniqueSamples, p.ZipfS)
	fmt.Printf("server: max-batch=%d max-wait=%v cache=%d entries, %d clients, %d requests/cell\n\n",
		p.MaxBatch, p.MaxWait, p.CacheEntries, p.Concurrency, p.Requests)

	rows, err := experiments.ServingTable(p)
	if err != nil {
		fmt.Fprintf(os.Stderr, "dmt-serve: %v\n", err)
		os.Exit(1)
	}
	fmt.Print(experiments.FormatServing(rows))

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
		fmt.Printf("\nDMT micro-batching speedup: %.2fx  (+caches: %.2fx, tower hit rate %.1f%%)\n",
			batched.QPS/unbatched.QPS, cached.QPS/unbatched.QPS, cached.Tower.HitRate()*100)
	}

	// The same cost model the cluster simulator runs on, for the modeled
	// counterpart of the measured numbers above.
	cost := serve.NewCostModel(topology.A100, perfmodel.DLRMSpec(), *towers)
	fmt.Printf("\nmodeled (%s):\n  full batch of %d: forward %v, cold embedding fetch %v\n",
		cost, p.MaxBatch,
		cost.ForwardTime(p.MaxBatch, 0).Round(time.Microsecond),
		cost.EmbFetchTime(p.MaxBatch*cost.EmbTables).Round(time.Microsecond))
}
