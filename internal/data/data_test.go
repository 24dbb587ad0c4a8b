package data

import (
	"math"
	"testing"
	"testing/quick"

	"dmt/internal/metrics"
)

func TestBatchDeterminism(t *testing.T) {
	g1 := NewGenerator(CriteoLike(42))
	g2 := NewGenerator(CriteoLike(42))
	b1 := g1.Batch(100, 64)
	b2 := g2.Batch(100, 64)
	if !b1.Dense.Equal(b2.Dense) {
		t.Fatal("dense features not deterministic")
	}
	for f := range b1.Indices {
		for i := range b1.Indices[f] {
			if b1.Indices[f][i] != b2.Indices[f][i] {
				t.Fatal("indices not deterministic")
			}
		}
	}
	for i := range b1.Labels {
		if b1.Labels[i] != b2.Labels[i] {
			t.Fatal("labels not deterministic")
		}
	}
}

func TestBatchIndependentOfChunking(t *testing.T) {
	g := NewGenerator(CriteoLike(7))
	whole := g.Batch(0, 32)
	first := g.Batch(0, 16)
	second := g.Batch(16, 16)
	for s := 0; s < 16; s++ {
		if whole.Labels[s] != first.Labels[s] || whole.Labels[16+s] != second.Labels[s] {
			t.Fatal("sample content must depend only on absolute index")
		}
	}
}

func TestDifferentSeedsDiffer(t *testing.T) {
	a := NewGenerator(CriteoLike(1)).Batch(0, 32)
	b := NewGenerator(CriteoLike(2)).Batch(0, 32)
	same := 0
	for i := range a.Labels {
		if a.Labels[i] == b.Labels[i] {
			same++
		}
	}
	if same == len(a.Labels) && a.Dense.Equal(b.Dense) {
		t.Fatal("different seeds must produce different data")
	}
}

func TestIndicesWithinCardinality(t *testing.T) {
	cfg := CriteoLike(3)
	g := NewGenerator(cfg)
	b := g.Batch(0, 128)
	for f, idxs := range b.Indices {
		if len(b.Offsets[f]) != 128 {
			t.Fatalf("feature %d offsets length %d", f, len(b.Offsets[f]))
		}
		if len(idxs) != 128*cfg.HotSizes[f] {
			t.Fatalf("feature %d bag sizes wrong", f)
		}
		for _, ix := range idxs {
			if ix < 0 || int(ix) >= cfg.Cardinalities[f] {
				t.Fatalf("feature %d index %d out of range", f, ix)
			}
		}
	}
}

func TestPositiveRateReasonable(t *testing.T) {
	const n = 4000
	pos := 0
	for _, l := range NewGenerator(CriteoLike(11)).Batch(0, n).Labels {
		if l > 0.5 {
			pos++
		}
	}
	if rate := float64(pos) / n; rate < 0.1 || rate > 0.6 {
		t.Fatalf("positive rate %v outside CTR-plausible band", rate)
	}
}

func TestGroundTruthLogitsCarrySignal(t *testing.T) {
	// Scoring by the noiseless ground-truth logit must yield strong AUC:
	// this bounds what a perfect model could learn and certifies the
	// planted interactions actually drive the labels.
	g := NewGenerator(CriteoLike(13))
	b := g.Batch(0, 4000)
	scores := make([]float64, b.Size)
	copy(scores, b.Logits)
	auc := metrics.AUC(scores, b.Labels)
	if auc < 0.72 {
		t.Fatalf("oracle AUC = %v; planted signal too weak", auc)
	}
}

func TestInteractionSignalIsGrouped(t *testing.T) {
	// Pooled latents of same-group features must be far more aligned than
	// cross-group ones: this is the block structure TP discovers.
	g := NewGenerator(CriteoLike(17))
	m := 256
	lat := g.LatentBatch(0, m)
	nf := g.Config().NumSparse()
	dim := embDim

	var sameSum, crossSum float64
	var sameN, crossN int
	for i := 0; i < nf; i++ {
		for j := i + 1; j < nf; j++ {
			// average |cos| across samples
			var acc float64
			for s := 0; s < m; s++ {
				vi := lat.Data()[(s*nf+i)*dim : (s*nf+i+1)*dim]
				vj := lat.Data()[(s*nf+j)*dim : (s*nf+j+1)*dim]
				var dot, ni, nj float64
				for d := 0; d < dim; d++ {
					dot += float64(vi[d]) * float64(vj[d])
					ni += float64(vi[d]) * float64(vi[d])
					nj += float64(vj[d]) * float64(vj[d])
				}
				if ni > 0 && nj > 0 {
					acc += math.Abs(dot) / math.Sqrt(ni*nj)
				}
			}
			acc /= float64(m)
			if g.TrueGroup(i) == g.TrueGroup(j) {
				sameSum += acc
				sameN++
			} else {
				crossSum += acc
				crossN++
			}
		}
	}
	same := sameSum / float64(sameN)
	cross := crossSum / float64(crossN)
	if same < cross*1.5 {
		t.Fatalf("planted affinity too weak: same-group %v vs cross-group %v", same, cross)
	}
}

func TestTrueGroupsPartition(t *testing.T) {
	g := NewGenerator(CriteoLike(19))
	groups := g.TrueGroups()
	if len(groups) != g.Config().NumGroups {
		t.Fatalf("got %d groups", len(groups))
	}
	seen := make(map[int]bool)
	total := 0
	for _, grp := range groups {
		if len(grp) == 0 {
			t.Fatal("empty ground-truth group")
		}
		for _, f := range grp {
			if seen[f] {
				t.Fatalf("feature %d in two groups", f)
			}
			seen[f] = true
			total++
		}
	}
	if total != g.Config().NumSparse() {
		t.Fatalf("partition covers %d of %d features", total, g.Config().NumSparse())
	}
}

func TestXLRMMiniSchema(t *testing.T) {
	cfg := XLRMMini(23)
	if cfg.NumGroups != 3 {
		t.Fatalf("XLRM mini must have 3 categories, got %d", cfg.NumGroups)
	}
	g := NewGenerator(cfg)
	b := g.Batch(0, 8)
	// Multi-hot user-history features must have bags of the configured size.
	f := len(cfg.Cardinalities) - 1
	if len(b.Indices[f]) != 8*cfg.HotSizes[f] {
		t.Fatalf("multi-hot bags wrong: %d", len(b.Indices[f]))
	}
	if cfg.HotSizes[f] < 2 {
		t.Fatal("history features should be multi-hot")
	}
}

func TestQuickBatchShapes(t *testing.T) {
	f := func(seed uint64, start16 uint16, size8 uint8) bool {
		size := int(size8%64) + 1
		g := NewGenerator(CriteoLike(seed))
		b := g.Batch(int(start16), size)
		if b.Dense.Dim(0) != size || len(b.Labels) != size {
			return false
		}
		for fi := range b.Indices {
			if len(b.Offsets[fi]) != size {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

// TrueGroup returns the planted group of feature f.
func (g *Generator) TrueGroup(f int) int { return g.groups[f] }

// TestBatchAllocs pins Batch's allocations on CriteoLike: its slices and
// tensors, 62 objects, at any batch size. While Tensor.Set and At let their
// index slices escape it allocated two more per sample and dense feature
// (1 726 at 64 samples).
func TestBatchAllocs(t *testing.T) {
	g := NewGenerator(CriteoLike(3))
	for _, size := range []int{1, 64, 256} {
		if n := testing.AllocsPerRun(5, func() { g.Batch(0, size) }); n > 62 {
			t.Errorf("Batch of %d samples allocates %v times, want ≤ 62", size, n)
		}
	}
}
