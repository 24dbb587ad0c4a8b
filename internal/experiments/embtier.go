package experiments

import (
	"fmt"
	"strings"
	"time"

	"dmt/internal/embeddings"
	"dmt/internal/netsim"
	"dmt/internal/topology"
)

// The disaggregated-embedding-tier experiment: the DisaggRec-style
// memory:compute question asked of the repo's own training engines. The
// same DMT-DLRM job runs once with in-process tables (the baseline every
// other experiment uses) and then with the tables moved onto 1, 2, and 4
// dedicated embedding-server ranks reached over the simulated fabric, each
// remote shape with the compute ranks' write-back hot-ID cache off and on.
//
// Every row follows the bitwise-identical training trajectory — the tier
// moves rows over a wire but never changes a value — so the columns isolate
// pure dataflow cost: how many cross-host bytes the lookup and update
// rounds ship, how much modeled virtual-clock time the clients spent
// blocked on servers, and how much of both the hot-ID cache claws back.

// EmbTierRow is one (servers, cache) configuration's measurement.
type EmbTierRow struct {
	// Servers is the number of dedicated embedding-server ranks; 0 is the
	// in-process baseline (one row, cache not applicable).
	Servers int
	// CacheRows is each compute rank's write-back cache capacity.
	CacheRows int
	// FinalLoss pins trajectory identity: every row must agree bitwise.
	FinalLoss float64
	// Tier is the cumulative tier traffic over the run.
	Tier embeddings.TierStats
}

// Config names the row, e.g. "local", "s=2/cache=4096".
func (r EmbTierRow) Config() string {
	if r.Servers == 0 {
		return "local"
	}
	return fmt.Sprintf("s=%d/cache=%d", r.Servers, r.CacheRows)
}

// HitRate returns the hot-ID cache hit rate over the run.
func (r EmbTierRow) HitRate() float64 {
	total := r.Tier.CacheHits + r.Tier.CacheMisses
	if total == 0 {
		return 0
	}
	return float64(r.Tier.CacheHits) / float64(total)
}

// EmbTierReport is the memory:compute sweep for one hardware generation.
type EmbTierReport struct {
	Gen     topology.Generation
	Profile TrainingProfile
	Rows    []EmbTierRow
}

// EmbTierProfile sizes the sweep: the DefaultTraining cluster shape over
// fewer steps on a simulated fabric, so the table regenerates in seconds
// inside CI and the exposure columns are deterministic virtual-clock
// quantities.
func EmbTierProfile(gen topology.Generation) TrainingProfile {
	p := DefaultTraining()
	p.Steps = 3
	p.Fabric = netsim.New(gen)
	return p
}

// embTierCacheRows is the cache capacity the sweep's cache-on rows use —
// large enough to hold every hot row of the default profile, so the hit
// rate converges to the workload's reuse rate rather than an eviction rate.
const embTierCacheRows = 4096

// EmbTier runs the sweep: the local baseline, then servers ∈ {1, 2, 4}
// each with the hot-ID cache off and on. Deterministic: identical calls
// return identical tables, and the acceptance ordering — cache-on ships
// fewer lookup bytes and exposes less lookup time than cache-off at equal
// server count — is asserted by the package test and the bench-embtier CI
// gate.
func EmbTier(gen topology.Generation) EmbTierReport {
	rep := EmbTierReport{Gen: gen, Profile: EmbTierProfile(gen)}
	type shape struct{ servers, cacheRows int }
	shapes := []shape{{0, 0}}
	for _, s := range []int{1, 2, 4} {
		shapes = append(shapes, shape{s, 0}, shape{s, embTierCacheRows})
	}
	for _, sh := range shapes {
		p := rep.Profile
		p.EmbServers = sh.servers
		p.EmbCacheRows = sh.cacheRows
		last, st, _ := runTraining(p, false)
		rep.Rows = append(rep.Rows, EmbTierRow{
			Servers:   sh.servers,
			CacheRows: sh.cacheRows,
			FinalLoss: last,
			Tier:      st.Tier,
		})
	}
	return rep
}

// Row returns the (servers, cacheRows) row; panics if the report lacks it.
func (r EmbTierReport) Row(servers, cacheRows int) EmbTierRow {
	for _, row := range r.Rows {
		if row.Servers == servers && row.CacheRows == cacheRows {
			return row
		}
	}
	panic(fmt.Sprintf("experiments: embtier has no servers=%d cache=%d row", servers, cacheRows))
}

// FormatEmbTier renders the memory:compute sweep.
func FormatEmbTier(r EmbTierReport) string {
	p := r.Profile
	steps := float64(p.Steps)
	us := func(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 / steps }
	kb := func(n int64) float64 { return float64(n) / 1024 / steps }
	var b strings.Builder
	fmt.Fprintf(&b, "Embedding tier: disaggregated memory:compute sweep, DMT-DLRM on simulated %s fabric\n", r.Gen.Name)
	fmt.Fprintf(&b, "(G=%d compute ranks, L=%d; per-step wire KB and virtual-clock µs summed over clients; deterministic)\n",
		p.G, p.L)
	fmt.Fprintf(&b, "%-16s %9s %9s %9s | %9s %9s | %7s | %9s\n",
		"Config", "lkKB", "upKB", "hitRate", "lkExp", "upExp", "lk/up", "loss")
	for _, row := range r.Rows {
		t := row.Tier
		fmt.Fprintf(&b, "%-16s %9.1f %9.1f %9.3f | %9.2f %9.2f | %3d/%-3d | %9.4f\n",
			row.Config(), kb(t.LookupCrossBytes), kb(t.UpdateCrossBytes), row.HitRate(),
			us(t.LookupExposed), us(t.UpdateExposed),
			t.Lookups/int64(p.Steps), t.Updates/int64(p.Steps), row.FinalLoss)
	}
	off := r.Row(2, 0)
	on := r.Row(2, embTierCacheRows)
	fmt.Fprintf(&b, "All rows follow one bitwise trajectory (the loss column); the tier only moves rows.\n")
	fmt.Fprintf(&b, "At s=2 the write-back cache cuts lookup wire %.1f->%.1f KB/step and exposed lookup\n",
		kb(off.Tier.LookupCrossBytes), kb(on.Tier.LookupCrossBytes))
	fmt.Fprintf(&b, "time %.2f->%.2fµs/step (hit rate %.0f%%); update rounds are write-through, so their\n",
		us(off.Tier.LookupExposed), us(on.Tier.LookupExposed), 100*on.HitRate())
	fmt.Fprintf(&b, "wire volume is the cache-independent floor.\n")
	return b.String()
}
