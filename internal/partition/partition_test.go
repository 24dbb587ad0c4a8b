package partition

import (
	"math"
	"testing"
	"testing/quick"

	"dmt/internal/data"
	"dmt/internal/models"
	"dmt/internal/tensor"
)

// plantedMatrix builds a block interaction matrix: high affinity within
// blocks of size blockSize, low across, plus small deterministic jitter.
func plantedMatrix(f, blockSize int, hi, lo float64, seed uint64) *tensor.Tensor {
	r := tensor.NewRNG(seed)
	m := tensor.New(f, f)
	for i := 0; i < f; i++ {
		for j := 0; j < f; j++ {
			switch {
			case i == j:
				m.Set(1, i, j)
			case i/blockSize == j/blockSize:
				m.Set(float32(hi+0.05*(r.Float64()-0.5)), i, j)
			default:
				m.Set(float32(lo+0.05*(r.Float64()-0.5)), i, j)
			}
		}
	}
	// Symmetrize.
	for i := 0; i < f; i++ {
		for j := i + 1; j < f; j++ {
			v := (m.At(i, j) + m.At(j, i)) / 2
			m.Set(v, i, j)
			m.Set(v, j, i)
		}
	}
	return m
}

func TestInteractionMatrixProperties(t *testing.T) {
	r := tensor.NewRNG(1)
	emb := tensor.RandN(r, 1, 16, 6, 4)
	im := InteractionMatrix(emb)
	f := im.Dim(0)
	for i := 0; i < f; i++ {
		if im.At(i, i) != 1 {
			t.Fatal("diagonal must be 1")
		}
		for j := 0; j < f; j++ {
			v := im.At(i, j)
			if v < 0 || v > 1.0001 {
				t.Fatalf("affinity out of [0,1]: %v", v)
			}
			if im.At(i, j) != im.At(j, i) {
				t.Fatal("matrix must be symmetric")
			}
		}
	}
}

func TestInteractionMatrixDetectsAlignment(t *testing.T) {
	// Features 0,1 identical direction; feature 2 orthogonal.
	b := 8
	emb := tensor.New(b, 3, 2)
	for s := 0; s < b; s++ {
		emb.Set(1, s, 0, 0)
		emb.Set(2, s, 1, 0) // parallel to feature 0
		emb.Set(3, s, 2, 1) // orthogonal
	}
	im := InteractionMatrix(emb)
	if im.At(0, 1) < 0.99 {
		t.Fatalf("parallel features should have affinity 1, got %v", im.At(0, 1))
	}
	if im.At(0, 2) > 0.01 {
		t.Fatalf("orthogonal features should have affinity 0, got %v", im.At(0, 2))
	}
}

func TestInteractionMatrixAbsoluteValue(t *testing.T) {
	// Anti-parallel features count as strongly related (abs kernel, §3.3).
	emb := tensor.New(4, 2, 2)
	for s := 0; s < 4; s++ {
		emb.Set(1, s, 0, 0)
		emb.Set(-1, s, 1, 0)
	}
	im := InteractionMatrix(emb)
	if im.At(0, 1) < 0.99 {
		t.Fatalf("anti-parallel affinity should be 1, got %v", im.At(0, 1))
	}
}

func TestDistanceMatrixStrategies(t *testing.T) {
	im := plantedMatrix(6, 3, 0.8, 0.1, 2)
	dd := DistanceMatrix(im, Diverse)
	dc := DistanceMatrix(im, Coherent)
	// Diverse: similar pair (0,1) has LARGE distance; coherent: small.
	if dd.At(0, 1) < dd.At(0, 5) {
		t.Fatal("diverse should push similar features apart")
	}
	if dc.At(0, 1) > dc.At(0, 5) {
		t.Fatal("coherent should pull similar features together")
	}
	for i := 0; i < 6; i++ {
		if dd.At(i, i) != 0 || dc.At(i, i) != 0 {
			t.Fatal("self-distance must be 0")
		}
	}
	if Diverse.String() != "diverse" || Coherent.String() != "coherent" {
		t.Fatal("strategy names")
	}
}

func TestMDSReducesStress(t *testing.T) {
	d := DistanceMatrix(plantedMatrix(12, 4, 0.8, 0.1, 3), Coherent)
	res := MDSEmbed(d, 2, 300, 0.05, 7)
	first, last := res.StressHistory[0], res.StressHistory[len(res.StressHistory)-1]
	if last > first*0.5 {
		t.Fatalf("MDS stress barely improved: %v -> %v", first, last)
	}
	if got := Stress(res.X, d); math.Abs(got-last)/math.Max(last, 1e-9) > 0.2 {
		t.Fatalf("Stress() inconsistent with trace: %v vs %v", got, last)
	}
}

func TestMDSPreservesRelativeDistances(t *testing.T) {
	// Embedding a coherent-transformed block matrix must place same-block
	// features closer than cross-block ones, on average.
	d := DistanceMatrix(plantedMatrix(12, 4, 0.85, 0.05, 4), Coherent)
	res := MDSEmbed(d, 2, 400, 0.05, 8)
	var sameSum, crossSum float64
	var sameN, crossN int
	for i := 0; i < 12; i++ {
		for j := i + 1; j < 12; j++ {
			dd := dist2(res.X.Row(i), res.X.Row(j))
			if i/4 == j/4 {
				sameSum += dd
				sameN++
			} else {
				crossSum += dd
				crossN++
			}
		}
	}
	if sameSum/float64(sameN) >= crossSum/float64(crossN) {
		t.Fatal("same-block features should embed closer together")
	}
}

func TestConstrainedKMeansRespectsCap(t *testing.T) {
	r := tensor.NewRNG(5)
	x := tensor.RandN(r, 1, 20, 2)
	groups := ConstrainedKMeans(x, 4, 5, 30, 9)
	total := 0
	for _, g := range groups {
		if len(g) > 5 {
			t.Fatalf("group size %d exceeds cap 5", len(g))
		}
		total += len(g)
	}
	if total != 20 {
		t.Fatalf("clustered %d of 20 points", total)
	}
}

func TestConstrainedKMeansRejectsImpossible(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic when k*maxSize < F")
		}
	}()
	ConstrainedKMeans(tensor.New(10, 2), 2, 4, 10, 1)
}

func TestConstrainedKMeansSeparatesObviousClusters(t *testing.T) {
	// Two tight clusters far apart; balanced k=2 must split them exactly.
	x := tensor.New(8, 2)
	for i := 0; i < 4; i++ {
		x.Set(float32(i)*0.01, i, 0)
		x.Set(10+float32(i)*0.01, 4+i, 0)
	}
	groups := ConstrainedKMeans(x, 2, 4, 20, 11)
	for _, g := range groups {
		lo, hi := 0, 0
		for _, p := range g {
			if p < 4 {
				lo++
			} else {
				hi++
			}
		}
		if lo != 0 && hi != 0 {
			t.Fatalf("cluster mixed: %v", groups)
		}
	}
}

func TestTPCoherentRecoversPlantedBlocks(t *testing.T) {
	im := plantedMatrix(16, 4, 0.85, 0.05, 13)
	tp := NewTP(Coherent, 17)
	res, err := tp.PartitionMatrix(im, 4)
	if err != nil {
		t.Fatal(err)
	}
	want := [][]int{{0, 1, 2, 3}, {4, 5, 6, 7}, {8, 9, 10, 11}, {12, 13, 14, 15}}
	if agree := PairAgreement(res.Groups, want, 16); agree < 0.95 {
		t.Fatalf("coherent TP recovered %.2f of planted structure: %v", agree, res.Groups)
	}
	_, _, ratio := BalanceStats(res.Groups)
	if ratio > 1.0 {
		t.Fatalf("K=1 balance violated: ratio %v", ratio)
	}
}

func TestTPDiverseSpreadsBlocks(t *testing.T) {
	im := plantedMatrix(16, 4, 0.85, 0.05, 19)
	tp := NewTP(Diverse, 23)
	res, err := tp.PartitionMatrix(im, 4)
	if err != nil {
		t.Fatal(err)
	}
	within, cross := WithinCrossAffinity(im, res.Groups)
	if within >= cross {
		t.Fatalf("diverse strategy should mix blocks: within %v vs cross %v", within, cross)
	}
}

func TestTPCoherentBeatsNaiveOnAffinity(t *testing.T) {
	im := plantedMatrix(24, 6, 0.8, 0.1, 29)
	tp := NewTP(Coherent, 31)
	res, err := tp.PartitionMatrix(im, 4)
	if err != nil {
		t.Fatal(err)
	}
	tpWithin, _ := WithinCrossAffinity(im, res.Groups)
	naiveWithin, _ := WithinCrossAffinity(im, models.RoundRobinTowers(4, 24))
	if tpWithin <= naiveWithin {
		t.Fatalf("TP within-affinity %v should beat naive %v", tpWithin, naiveWithin)
	}
}

func TestTPOnGeneratorOracleLatents(t *testing.T) {
	// End-to-end: the synthetic workload's planted groups must be
	// recoverable from its own latents — the machinery Figure 9/Table 6
	// rely on.
	g := data.NewGenerator(data.CriteoLike(37))
	lat := g.LatentBatch(0, 128)
	tp := NewTP(Coherent, 41)
	res, err := tp.PartitionEmbeddings(lat, g.Config().NumGroups)
	if err != nil {
		t.Fatal(err)
	}
	if agree := PairAgreement(res.Groups, g.TrueGroups(), g.Config().NumSparse()); agree < 0.6 {
		t.Fatalf("TP recovered only %.2f of the generator's planted groups", agree)
	}
}

func TestGreedyCoherentBaseline(t *testing.T) {
	im := plantedMatrix(12, 4, 0.85, 0.05, 43)
	groups := GreedyCoherent(im, 3, 4)
	total := 0
	for _, g := range groups {
		if len(g) > 4 {
			t.Fatalf("greedy exceeded cap: %v", groups)
		}
		total += len(g)
	}
	if total != 12 {
		t.Fatalf("greedy placed %d of 12", total)
	}
	within, cross := WithinCrossAffinity(im, groups)
	if within <= cross {
		t.Fatalf("greedy coherent should find block structure: %v vs %v", within, cross)
	}
}

func TestPairAgreementBounds(t *testing.T) {
	a := [][]int{{0, 1}, {2, 3}}
	if PairAgreement(a, a, 4) != 1 {
		t.Fatal("identical partitions must score 1")
	}
	b := [][]int{{0, 2}, {1, 3}}
	if s := PairAgreement(a, b, 4); s != 0 {
		t.Fatalf("disjoint pair structure should score 0, got %v", s)
	}
}

func TestBalanceStats(t *testing.T) {
	min, max, ratio := BalanceStats([][]int{{1, 2}, {3, 4, 5}, {6}})
	if min != 1 || max != 3 || ratio != 3 {
		t.Fatalf("got %d %d %v", min, max, ratio)
	}
}

// Property: constrained k-means always yields a complete partition within
// the cap, for random inputs.
func TestQuickConstrainedKMeansInvariants(t *testing.T) {
	f := func(seed uint64, f8, k8 uint8) bool {
		f := int(f8%20) + 4
		k := int(k8%4) + 1
		if k > f {
			k = f
		}
		maxSize := (f + k - 1) / k
		x := tensor.RandN(tensor.NewRNG(seed), 1, f, 3)
		groups := ConstrainedKMeans(x, k, maxSize, 15, seed)
		seen := make([]bool, f)
		for _, g := range groups {
			if len(g) > maxSize {
				return false
			}
			for _, p := range g {
				if seen[p] {
					return false
				}
				seen[p] = true
			}
		}
		for _, s := range seen {
			if !s {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// Stress evaluates the MDS objective Σ_{i<j} (‖X_i−X_j‖ − D_ij)² for
// coordinates x (F, n).
func Stress(x, d *tensor.Tensor) float64 {
	f, n := x.Dim(0), x.Dim(1)
	total := 0.0
	for i := 0; i < f; i++ {
		for j := i + 1; j < f; j++ {
			var acc float64
			for p := 0; p < n; p++ {
				diff := float64(x.At(i, p)) - float64(x.At(j, p))
				acc += diff * diff
			}
			dist := math.Sqrt(acc)
			e := dist - float64(d.At(i, j))
			total += e * e
		}
	}
	return total
}
