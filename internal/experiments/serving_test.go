package experiments

import (
	"strings"
	"testing"
	"time"
)

func TestServingTable(t *testing.T) {
	rows, err := ServingTable(SmokeServing())
	if err != nil {
		t.Fatalf("ServingTable: %v", err)
	}
	if len(rows) != 6 {
		t.Fatalf("got %d rows, want 6 (2 models x 3 modes)", len(rows))
	}
	var dmtCached *ServingRow
	for i, r := range rows {
		if r.QPS <= 0 {
			t.Errorf("row %d (%s/%s): QPS %v, want > 0", i, r.Model, r.Mode, r.QPS)
		}
		if r.Mode == "microbatch+cache" && strings.HasPrefix(r.Model, "DMT") {
			dmtCached = &rows[i]
		}
	}
	if dmtCached == nil {
		t.Fatal("missing DMT microbatch+cache row")
	}
	if hit := dmtCached.Tower.HitRate(); hit <= 0 {
		t.Errorf("DMT cached row: tower hit rate %v, want > 0 under zipf load", hit)
	}
	if hit := dmtCached.Emb.HitRate(); hit <= 0 {
		t.Errorf("DMT cached row: embedding hit rate %v, want > 0 under zipf load", hit)
	}
	out := FormatServing(rows)
	if !strings.Contains(out, "DMT") || !strings.Contains(out, "microbatch") {
		t.Fatalf("format output missing expected columns:\n%s", out)
	}
}

// SmokeServing keeps the test suite fast.
func SmokeServing() ServingProfile {
	return ServingProfile{
		Requests:      384,
		Concurrency:   16,
		UniqueSamples: 192,
		ZipfS:         1.3,
		MaxBatch:      16,
		MaxWait:       time.Millisecond,
		CacheEntries:  1 << 12,
		Towers:        4,
	}
}
