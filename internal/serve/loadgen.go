package serve

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"dmt/internal/data"
	"dmt/internal/workload"
)

// The built-in closed-loop load generator, reimplemented on package
// workload: a fixed set of client goroutines each draw sample ids from a
// workload.KeyStream (the same zipf-skewed stream the open-loop trace
// generator uses), issue a blocking Predict, and record the latency. Zipf
// skew is what makes the caches earn their keep — hot ids repeat, as hot
// items and returning users do in production recommendation traffic.

// LoadConfig parameterizes a closed-loop run.
type LoadConfig struct {
	Concurrency int     // client goroutines
	Requests    int     // total requests across all clients
	ZipfS       float64 // zipf skew (> 1); higher = hotter head
	Seed        uint64  // per-client RNG derivation
}

// LoadReport summarizes one run.
type LoadReport struct {
	Requests      int
	Elapsed       time.Duration
	QPS           float64
	P50, P95, P99 time.Duration
}

// String renders the report one line at a time for logs.
func (r LoadReport) String() string {
	return fmt.Sprintf("%d req in %v  qps=%.0f  p50=%v p95=%v p99=%v",
		r.Requests, r.Elapsed.Round(time.Millisecond), r.QPS, r.P50, r.P95, r.P99)
}

// BuildSamples materializes n deterministic request samples from the
// synthetic workload generator; sample i is the generator's sample i.
func BuildSamples(gen *data.Generator, n int) []Sample {
	cfg := gen.Config()
	nf := cfg.NumSparse()
	out := make([]Sample, n)
	for i := range out {
		b := gen.Batch(i, 1)
		sm := Sample{
			Dense:   append([]float32(nil), b.Dense.Row(0)...),
			Indices: make([][]int32, nf),
		}
		for f := 0; f < nf; f++ {
			sm.Indices[f] = append([]int32(nil), b.Indices[f]...)
		}
		out[i] = sm
	}
	return out
}

// RunLoad drives the server with cfg.Requests blocking predictions from
// cfg.Concurrency clients drawing zipf-skewed ids over samples. A Predict
// error — a closed or failing server — stops the run and is returned
// (wrapped) instead of crashing the client goroutine.
func RunLoad(s *Server, samples []Sample, cfg LoadConfig) (LoadReport, error) {
	if len(samples) == 0 {
		return LoadReport{}, nil
	}
	if cfg.Concurrency < 1 {
		cfg.Concurrency = 1
	}
	if cfg.ZipfS <= 1 {
		cfg.ZipfS = 1.2
	}
	if cfg.Requests < 1 {
		return LoadReport{}, nil
	}
	// Spread the load so exactly cfg.Requests are issued: every client gets
	// the floor share and the remainder goes one-per-client to the first
	// Requests%Concurrency clients (dropping it would silently under-drive
	// and over-report QPS).
	perClient := cfg.Requests / cfg.Concurrency
	remainder := cfg.Requests % cfg.Concurrency
	total := cfg.Requests

	lats := make([][]time.Duration, cfg.Concurrency)
	var errOnce sync.Once
	var loadErr error
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < cfg.Concurrency; c++ {
		n := perClient
		if c < remainder {
			n++
		}
		if n == 0 {
			continue
		}
		wg.Add(1)
		go func(c, n int) {
			defer wg.Done()
			keys := workload.NewKeyStream(int64(cfg.Seed)*7919+int64(c), cfg.ZipfS, len(samples))
			mine := make([]time.Duration, 0, n)
			for i := 0; i < n; i++ {
				sm := samples[keys.Next()]
				t0 := time.Now()
				if _, err := s.Predict(sm); err != nil {
					errOnce.Do(func() { loadErr = err })
					return
				}
				mine = append(mine, time.Since(t0))
			}
			lats[c] = mine
		}(c, n)
	}
	wg.Wait()
	elapsed := time.Since(start)
	if loadErr != nil {
		return LoadReport{}, fmt.Errorf("serve: load client: %w", loadErr)
	}

	var all []time.Duration
	for _, l := range lats {
		all = append(all, l...)
	}
	sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
	return LoadReport{
		Requests: total,
		Elapsed:  elapsed,
		QPS:      float64(total) / elapsed.Seconds(),
		P50:      workload.Percentile(all, 0.50),
		P95:      workload.Percentile(all, 0.95),
		P99:      workload.Percentile(all, 0.99),
	}, nil
}
