package distributed

import (
	"runtime"
	"testing"

	"dmt/internal/data"
	"dmt/internal/embeddings"
	"dmt/internal/models"
)

// TestTrainerHoldsOneTableSet checks that the trainer seeds its embedding
// tables once: every replica, the dataflow engine and the embedding tier
// (local and remote) hold the same tables, and New's live-heap growth is
// one table set plus its SparseAdam moments, not one set per replica.
func TestTrainerHoldsOneTableSet(t *testing.T) {
	for _, servers := range []int{0, 2} {
		cfg, _ := testSetup(1)
		cfg.EmbeddingTier.Servers = servers
		tr, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		eng := tr.Engine()
		for g := 0; g < cfg.G; g++ {
			for f, e := range tr.Replica(g).Embs {
				if e != eng.Tables[f] {
					t.Fatalf("servers=%d: replica %d's table %d is not the engine's", servers, g, f)
				}
			}
		}
		// The tier reads those very tables: a value written into each
		// table's row 0 comes back from a lookup. Clients look up their
		// owned tables in ascending rank order, the order a remote tier's
		// server turns pass in.
		for f, e := range eng.Tables {
			e.Table.Row(0)[0] = float32(1000 + f)
		}
		for g := 0; g < cfg.G; g++ {
			var reqs []embeddings.Req
			for _, f := range eng.Cfg.OwnedFeatures(g) {
				reqs = append(reqs, embeddings.Req{Table: f, IDs: []int32{0}})
			}
			for i, rows := range tr.Tier().Client(g).Lookup(reqs) {
				if f := reqs[i].Table; rows.Row(0)[0] != float32(1000+f) {
					t.Fatalf("servers=%d: the tier's table %d is not the engine's", servers, f)
				}
			}
		}
		tr.Close()
	}

	// One 2^20-row table on one host of two ranks: New keeps the table and
	// its two Adam moments (3 table sizes) plus per-row optimizer step
	// counts and pooling scratch (3/8 of one); a copy per replica and one
	// for the engine would add 3 more.
	const rows, n = 1 << 20, 8
	schema := data.Schema{NumDense: 4, Cardinalities: []int{rows}, HotSizes: []int{1}}
	cfg := Config{
		G: 2, L: 2, LocalBatch: 4,
		Model: models.DMTDLRMConfig{
			Schema: schema, N: n, Towers: [][]int{{0}},
			C: 1, P: 0, D: 4,
			BottomMLP: []int{8, 4}, TopMLP: []int{8},
			Seed: 99,
		},
		DenseLR: 1e-3, SparseLR: 1e-2,
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	tr, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	tableBytes := int64(rows * n * 4)
	if grew := int64(after.HeapAlloc) - int64(before.HeapAlloc); grew > 4*tableBytes {
		t.Errorf("New's live heap grew %.1f MB, want ≤ 4 tables' %.1f MB", float64(grew)/1e6, float64(4*tableBytes)/1e6)
	}
	tr.Close()
}
