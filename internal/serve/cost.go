package serve

import (
	"fmt"
	"time"

	"dmt/internal/netsim"
	"dmt/internal/perfmodel"
	"dmt/internal/topology"
)

// CostModel is the cost side of serving, extracted from the server's
// goroutine plumbing into a pure layer both the real server (for modeled
// vs measured comparison) and the cluster simulator (for virtual-clock
// service times) consume:
//
//   - Per-batch forward time comes from the model's FLOPs over the
//     generation's achieved training throughput (perfmodel.EffectiveTFlops —
//     the same calibration the training-side cost models share).
//   - Embedding-fetch time prices a replica's miss traffic to the
//     disaggregated embedding tier as one request/response round over the
//     cross-host fabric (netsim.P2PTime via Fabric.RoundTrip).
//   - Tower-cache hits skip the per-tower module compute — the DMT-specific
//     memoization models.Predict exploits; the replica-state layer does the
//     hit/miss accounting with embeddings.LRUSet (Keyed's decisions, keys
//     only) and feeds the counts here.
//
// All methods are pure functions of their arguments, so every number they
// produce is deterministic and independent of wall-clock load.
type CostModel struct {
	// Gen is the accelerator generation a replica runs on.
	Gen topology.Generation
	// MFlopsPerSample is the full forward cost of one scored item.
	MFlopsPerSample float64
	// TowerShare is the fraction of MFlopsPerSample spent inside tower
	// modules, the part a tower-cache hit skips. Zero for monolithic models
	// (nothing above the per-bag level is memoizable).
	TowerShare float64
	// Towers is the tower count; a hit on one tower skips TowerShare/Towers
	// of a sample's flops.
	Towers int
	// EmbTables and EmbDim size the per-request embedding traffic: a fully
	// missing request fetches EmbTables rows of EmbDim fp32 elements.
	EmbTables int
	EmbDim    int
	// BatchOverhead is the fixed per-batch cost — request merge, kernel
	// launches, response fan-out — amortized by micro-batching.
	BatchOverhead time.Duration

	fabric *netsim.Fabric
}

// NewCostModel builds a serving cost model for a model spec on a hardware
// generation. For DMT deployments pass the tower count (towers >= 2), which
// switches the compute to the spec's Table 4 DMT variant and enables the
// tower-cache discount; towers <= 1 costs the unmodified model.
func NewCostModel(gen topology.Generation, spec perfmodel.ModelSpec, towers int) CostModel {
	c := CostModel{
		Gen:             gen,
		MFlopsPerSample: spec.MFlopsPerSample,
		EmbTables:       spec.IndexElemsPerSample,
		BatchOverhead:   15 * time.Microsecond,
		fabric:          netsim.New(gen),
	}
	if spec.IndexElemsPerSample > 0 {
		c.EmbDim = spec.EmbElemsPerSample / spec.IndexElemsPerSample
	}
	if towers > 1 {
		c.MFlopsPerSample = spec.DMTFlopsPerSample(towers)
		c.Towers = towers
		// Tower modules carry the bulk of a DMT forward at serving shape:
		// they subsume the per-feature processing and compression that the
		// monolithic interaction performed, leaving the over-arch a thin
		// consumer of their outputs.
		c.TowerShare = 0.6
	}
	return c
}

// ItemTime is the marginal compute of one scored item at full batch
// occupancy — the per-item slope of ForwardTime, used as the load estimate
// for requests whose cache outcome is not yet known.
func (c CostModel) ItemTime() time.Duration {
	sec := c.MFlopsPerSample * 1e6 / (perfmodel.EffectiveTFlops(c.Gen) * 1e12)
	return time.Duration(sec * float64(time.Second))
}

// ForwardTime is the modeled batched forward: fixed per-batch overhead plus
// items of per-sample compute, minus the tower-module share skipped by
// towerHits (sample, tower) cache hits.
func (c CostModel) ForwardTime(items, towerHits int) time.Duration {
	if items <= 0 {
		return 0
	}
	mflops := float64(float64(items) * c.MFlopsPerSample)
	if c.Towers > 0 && towerHits > 0 {
		saved := float64(towerHits) / float64(c.Towers) * c.TowerShare * c.MFlopsPerSample
		if max := mflops * c.TowerShare; saved > max {
			saved = max
		}
		mflops -= saved
	}
	sec := mflops * 1e6 / (perfmodel.EffectiveTFlops(c.Gen) * 1e12)
	return c.BatchOverhead + time.Duration(sec*float64(time.Second))
}

// EmbFetchTime prices a batch's embedding misses: one request/response round
// to the disaggregated embedding tier, carrying missRows int32 IDs out and
// missRows fp32 rows back over the cross-host fabric. Zero misses cost
// nothing — the batch is served entirely from the replica's cache.
func (c CostModel) EmbFetchTime(missRows int) time.Duration {
	if missRows <= 0 || c.EmbTables == 0 {
		return 0
	}
	reqBytes := missRows * 4
	respBytes := missRows * c.EmbDim * 4
	sec := c.fabric.RoundTrip(reqBytes, respBytes, false)
	return time.Duration(sec * float64(time.Second))
}

// BatchTime composes the full service time of one batch: compute plus
// embedding fetch (the fetch is not overlapped — replicas block on the tier
// round before the forward can consume the rows).
func (c CostModel) BatchTime(items, towerHits, embMissRows int) (compute, embFetch time.Duration) {
	return c.ForwardTime(items, towerHits), c.EmbFetchTime(embMissRows)
}

// String summarizes the model for table headers.
func (c CostModel) String() string {
	kind := "monolithic"
	if c.Towers > 0 {
		kind = fmt.Sprintf("DMT %dT", c.Towers)
	}
	return fmt.Sprintf("%s, %.2f MFlops/item on %s (%.1f TF/s effective), %d emb tables x dim %d",
		kind, c.MFlopsPerSample, c.Gen.Name, perfmodel.EffectiveTFlops(c.Gen), c.EmbTables, c.EmbDim)
}
