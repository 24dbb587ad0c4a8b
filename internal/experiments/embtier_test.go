package experiments

import (
	"math"
	"testing"

	"dmt/internal/embeddings"
)

// TestEmbTierCacheReducesExposedLookup is the embedding tier's acceptance
// gate: the disaggregated tier must (a) leave the training trajectory bitwise intact
// in every configuration, (b) actually ship lookup traffic over the
// simulated fabric, and (c) have the write-back hot-ID cache strictly
// reduce both the lookup wire volume and the modeled exposed lookup time
// against cache-off at the same server count.
func TestEmbTierCacheReducesExposedLookup(t *testing.T) {
	rep := ambientSweep(t, "embtier")
	tier := func(servers, cacheRows int) embeddings.TierStats {
		return mustRun(t, rep, embTierName(servers, cacheRows)).Stats.Tier
	}

	local := mustRun(t, rep, "local")
	base := math.Float64bits(local.FinalLoss)
	for _, row := range rep.Runs {
		if math.Float64bits(row.FinalLoss) != base {
			t.Fatalf("row %s final loss %v (bits %#x) diverged from local %v (bits %#x): the tier changed values",
				row.Name, row.FinalLoss, math.Float64bits(row.FinalLoss), local.FinalLoss, base)
		}
	}
	if lt := local.Stats.Tier; lt.LookupCrossBytes != 0 || lt.UpdateCrossBytes != 0 {
		t.Fatalf("local tier reported wire bytes (%d lookup, %d update); in-process lookups are memory reads",
			lt.LookupCrossBytes, lt.UpdateCrossBytes)
	}

	off, on := tier(2, 0), tier(2, embTierCacheRows)
	if off.LookupCrossBytes == 0 {
		t.Fatal("remote tier at s=2 shipped no cross-host lookup bytes")
	}
	if off.LookupExposed == 0 {
		t.Fatal("remote tier at s=2 exposed no modeled lookup time")
	}
	if on.CacheHits == 0 {
		t.Fatal("write-back cache saw no hits over the run")
	}
	if on.LookupCrossBytes >= off.LookupCrossBytes {
		t.Fatalf("cache did not reduce lookup wire: %d bytes with cache vs %d without",
			on.LookupCrossBytes, off.LookupCrossBytes)
	}
	if on.LookupExposed >= off.LookupExposed {
		t.Fatalf("cache did not reduce exposed lookup time: %v with cache vs %v without",
			on.LookupExposed, off.LookupExposed)
	}
	// Update rounds are write-through: the cache must not change their
	// volume, only refresh itself from the returned rows.
	if on.UpdateCrossBytes != off.UpdateCrossBytes {
		t.Fatalf("cache changed update wire volume: %d bytes with cache vs %d without",
			on.UpdateCrossBytes, off.UpdateCrossBytes)
	}
}
