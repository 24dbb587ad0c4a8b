package experiments

import (
	"fmt"
	"time"

	"dmt/internal/data"
	"dmt/internal/models"
	"dmt/internal/serve"
)

// The serving-throughput experiment: the repo's counterpart to the paper's
// training-side tables, measuring what the DMT structure buys at inference
// time. Each model is served three ways — one request per forward, with the
// micro-batcher, and with the micro-batcher plus caches — under the same
// zipf-skewed closed-loop load. The tower-output cache row only exists for
// DMT: a monolithic interaction has no per-tower intermediate to memoize.

// ServingProfile sizes the serving experiment.
type ServingProfile struct {
	Requests      int // per (model, mode) cell
	Concurrency   int // closed-loop clients
	UniqueSamples int // id space the zipf load draws from
	ZipfS         float64
	MaxBatch      int
	MaxWait       time.Duration
	CacheEntries  int
	Towers        int
}

// DefaultServing is the cmd/dmt-serve default: its closed-loop flags take
// their defaults from it.
func DefaultServing() ServingProfile {
	return ServingProfile{
		Requests:      4096,
		Concurrency:   32,
		UniqueSamples: 1024,
		ZipfS:         1.2,
		MaxBatch:      32,
		MaxWait:       time.Millisecond,
		CacheEntries:  1 << 14,
		Towers:        8,
	}
}

// ServingRow is one (model, serving mode) measurement: what the load
// generator saw (QPS, latency percentiles) and what the server counted
// (batch occupancy, cache hit rates).
type ServingRow struct {
	Model, Mode string
	serve.LoadReport
	serve.Stats
}

// servingModes enumerates the three server configurations under test.
func servingModes(p ServingProfile) []struct {
	name string
	cfg  serve.Config
} {
	base := serve.DefaultConfig()
	base.MaxBatch = p.MaxBatch
	// A closed loop never has more than Concurrency requests in flight, so
	// a larger MaxBatch can never fill — every batch would wait out the
	// MaxWait timer for company that cannot arrive.
	if base.MaxBatch > p.Concurrency {
		base.MaxBatch = p.Concurrency
	}
	base.MaxWait = p.MaxWait

	unbatched := base
	unbatched.MaxBatch = 1

	cached := base
	cached.EmbCacheEntries = p.CacheEntries
	cached.TowerCacheEntries = p.CacheEntries

	return []struct {
		name string
		cfg  serve.Config
	}{
		{"unbatched", unbatched},
		{"microbatch", base},
		{"microbatch+cache", cached},
	}
}

// ServingTable measures DLRM and DMT-DLRM across the serving modes under
// identical zipf load, returning 6 rows. A load-generation failure (a
// server error mid-run) aborts the table.
func ServingTable(p ServingProfile) ([]ServingRow, error) {
	cfg := data.CriteoLike(1)
	gen := data.NewGenerator(cfg)
	samples := serve.BuildSamples(gen, p.UniqueSamples)

	towersList := models.RoundRobinTowers(p.Towers, cfg.NumSparse())
	preds := []models.Predictor{
		models.NewDLRM(models.DefaultDLRMConfig(cfg.Schema, 1)),
		models.NewDMTDLRM(models.ServingDMTDLRMConfig(cfg.Schema, towersList, 1)),
	}

	var rows []ServingRow
	for _, m := range preds {
		for _, mode := range servingModes(p) {
			srv := serve.NewServer(m, mode.cfg)
			rep, err := serve.RunLoad(srv, samples, serve.LoadConfig{
				Concurrency: p.Concurrency,
				Requests:    p.Requests,
				ZipfS:       p.ZipfS,
				Seed:        7,
			})
			st := srv.Stats()
			srv.Close()
			if err != nil {
				return nil, fmt.Errorf("experiments: serving %s/%s: %w", m.Name(), mode.name, err)
			}
			rows = append(rows, ServingRow{Model: m.Name(), Mode: mode.name, LoadReport: rep, Stats: st})
		}
	}
	return rows, nil
}

// FormatServing renders the serving-throughput comparison.
func FormatServing(rows []ServingRow) string {
	return table[ServingRow]{
		title: "Serving throughput: unbatched vs micro-batched vs cached (zipf load)",
		cols: []column[ServingRow]{
			{"Model", "%-14s", func(r ServingRow) any { return r.Model }},
			{"Mode", "%-18s", func(r ServingRow) any { return r.Mode }},
			{"QPS", "%10.0f", func(r ServingRow) any { return r.QPS }},
			{"p50", "%10s", func(r ServingRow) any { return micros(r.P50) }},
			{"p95", "%10s", func(r ServingRow) any { return micros(r.P95) }},
			{"p99", "%10s", func(r ServingRow) any { return micros(r.P99) }},
			{"AvgBatch", "%9.1f", func(r ServingRow) any { return r.AvgBatch }},
			{"EmbHit", "%7.1f%%", func(r ServingRow) any { return r.Emb.HitRate() * 100 }},
			{"TwrHit", "%7.1f%%", func(r ServingRow) any { return r.Tower.HitRate() * 100 }},
		},
	}.render(rows)
}
