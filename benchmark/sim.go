package main

import (
	"fmt"
	"reflect"
	"time"

	"dmt/internal/cluster"
	"dmt/internal/perfmodel"
	"dmt/internal/serve"
	"dmt/internal/topology"
	"dmt/internal/workload"
)

// sim_fleet: the discrete-event fleet simulator replaying one open-loop
// trace. No goroutines and no wall clock inside the program, so every
// simulated statistic must be identical on every replay; the wall-clock
// side is the simulator's own cost.

const (
	simReplicas   = 4
	simSamples    = 4096
	simZipf       = 1.2
	simMaxBatch   = 32
	simMaxWait    = 200 * time.Microsecond
	simCache      = 1 << 14
	simEmbIDSpace = 1 << 16
)

func simConfig(admitRate float64) (cluster.Config, error) {
	// Policies are stateful (cursors, affinity maps): one per replay.
	pol, err := cluster.ParsePolicy("cache-affinity")
	if err != nil {
		return cluster.Config{}, fmt.Errorf("sim: %w", err)
	}
	return cluster.Config{
		Replicas:          simReplicas,
		Cost:              serve.NewCostModel(topology.A100, perfmodel.DLRMSpec(), 8),
		MaxBatch:          simMaxBatch,
		MaxWait:           simMaxWait,
		Policy:            pol,
		AdmitRate:         admitRate,
		TowerCacheEntries: simCache,
		EmbCacheEntries:   simCache,
		EmbIDSpace:        simEmbIDSpace,
	}, nil
}

func simTrace(seed uint64, sz simSizes, requests int) *workload.Trace {
	return workload.Generate(workload.Config{
		Arrival:  workload.Poisson,
		Rate:     sz.rate,
		Requests: requests,
		Samples:  simSamples,
		ZipfS:    simZipf,
		Classes:  workload.DefaultClasses(),
		Seed:     seed,
	})
}

// sloShare is a lower bound on the share of offered requests served within
// their class SLO, read off the class percentiles (cluster.Result exposes
// percentiles, not per-request latencies): a class whose p99 holds the SLO
// has at least 0.99 of its served requests inside it, one whose p95 holds
// 0.95, one whose p50 holds 0.5. Rejected requests miss.
func sloShare(r cluster.Result) float64 {
	var within float64
	offered := 0
	for _, c := range r.Classes {
		offered += c.Arrived
		switch slo := c.Class.SLO; {
		case c.P99 <= slo:
			within += 0.99 * float64(c.Served)
		case c.P95 <= slo:
			within += 0.95 * float64(c.Served)
		case c.P50 <= slo:
			within += 0.50 * float64(c.Served)
		}
	}
	if offered == 0 {
		return 0
	}
	return within / float64(offered)
}

func runSimFleet(rc runConfig) (*report, error) {
	rep := newReport()
	sz := rc.sizes.sim
	requests := scaled(sz.requests, rc.scale, segments)

	// Set-up: generate the trace, build the fleet config, and replay the
	// warm-up rounds (they bring the simulator's heap to its steady size).
	var (
		trace *workload.Trace
		genNS float64
	)
	setupS, err := rc.setUp(func() error {
		g0 := time.Now()
		trace = simTrace(rc.seed, sz, requests)
		genNS = float64(time.Since(g0).Nanoseconds()) / float64(requests)
		for i := 0; i < sz.warmupReplays; i++ {
			cfg, err := simConfig(sz.admitRate)
			if err != nil {
				return err
			}
			cluster.Run(cfg, trace)
		}
		return nil
	}, func() { trace = nil })
	if err != nil {
		return nil, err
	}
	rep.set("setup_s", setupS)
	rep.set("workload.generate_ns_per_req", genNS)

	// Measured phase: K replays of the same trace, each one a segment.
	var (
		first    cluster.Result
		secs     []float64
		cpu      float64
		refRates []float64
	)
	for k := 0; k < sz.replays; k++ {
		cfg, err := simConfig(sz.admitRate)
		if err != nil {
			return nil, err
		}
		c0, t0 := cpuSeconds(), time.Now()
		res := cluster.Run(cfg, trace)
		secs = append(secs, time.Since(t0).Seconds())
		cpu += cpuSeconds() - c0
		refRates = append(refRates, refKernel())

		rep.op(requests)
		if got := res.Served + res.Rejected; got != requests {
			rep.failN(max(requests-got, got-requests), "replay %d: simulator accounted for %d of %d requests", k, got, requests)
		}
		if k == 0 {
			first = res
		} else if !reflect.DeepEqual(first, res) {
			rep.fail("replay %d returned a different Result from replay 0", k)
		}
	}

	rep.set("throughput_per_s", fastDecileRate(secs, float64(requests)))
	rep.set("bench.throughput_mean_per_s", float64(requests)/mean(secs))
	rep.set("latency_p50_ms", ms(first.P50))
	rep.set("bench.latency_p99_ms", ms(first.P99))
	rep.set("bench.cpu_ms_per_op", cpu*1e3/float64(requests*len(secs)))
	rep.set("bench.ref_rate", median(refRates))

	rep.set("cluster.sim_latency_p99_us", us(first.P99))
	rep.set("cluster.sim_slo_share", sloShare(first))
	rep.set("cluster.run_ms", median(secs)*1e3)
	rep.set("cluster.sim_avg_batch", first.AvgBatch)
	rep.set("cluster.sim_tower_hit_share", first.Tower.HitRate())
	rep.set("cluster.sim_reject_share", first.RejectRate())
	rep.set("cluster.sim_p50_us", us(first.P50))
	rep.set("cluster.sim_makespan_ms", ms(first.Duration))

	if rc.trace {
		// Traced window: one more replay under a span, with allocation
		// counting (ReadMemStats stops the world, so it stays out of the
		// measured replays).
		cfg, err := simConfig(sz.admitRate)
		if err != nil {
			return nil, err
		}
		m0 := readMem()
		t0 := time.Now()
		rc.rec.in("cluster.run", -1, int64(sz.replays), func(int) { cluster.Run(cfg, trace) })
		el := time.Since(t0).Seconds()
		rep.set("cluster.allocs_per_req", float64(readMem().mallocs-m0.mallocs)/float64(requests))
		rep.set("bench.tracing_overhead_share", 1-(float64(requests)/el)/rep.values["throughput_per_s"])
		rc.rec.in("workload.generate", -1, 0, func(int) { simTrace(rc.seed, sz, requests) })
	}
	return rep, nil
}
