package towers

import (
	"math"
	"testing"

	"dmt/internal/nn"
	"dmt/internal/sptt"
	"dmt/internal/tensor"
)

func TestDLRMTowerShapes(t *testing.T) {
	r := tensor.NewRNG(1)
	tw := NewDLRMTower(r, 4, 8, 1, 1, 16, "tm")
	// O = D*(c*F + p) = 16*(4+1) = 80.
	if tw.OutDim() != 80 {
		t.Fatalf("OutDim = %d", tw.OutDim())
	}
	y := tw.Forward(tensor.RandN(r, 1, 3, 4, 8))
	if y.Dim(0) != 3 || y.Dim(1) != 80 {
		t.Fatalf("shape %v", y.Shape())
	}
}

func TestDLRMTowerConfigsFromPaper(t *testing.T) {
	// §5.2.2: p=1, c=0, D=128 for 16 towers; c=1, p=0, D=64 for 2-8 towers.
	r := tensor.NewRNG(2)
	a := NewDLRMTower(r, 2, 128, 0, 1, 128, "a") // 26 features / 16 towers ≈ 2
	if a.OutDim() != 128 {
		t.Fatalf("p-only tower OutDim = %d", a.OutDim())
	}
	b := NewDLRMTower(r, 4, 128, 1, 0, 64, "b")
	if b.OutDim() != 256 {
		t.Fatalf("c-only tower OutDim = %d", b.OutDim())
	}
}

func TestDLRMTowerRejectsBadConfig(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for c=p=0")
		}
	}()
	NewDLRMTower(tensor.NewRNG(1), 4, 8, 0, 0, 16, "bad")
}

func TestDCNTowerShapes(t *testing.T) {
	r := tensor.NewRNG(3)
	tw := NewDCNTower(r, 3, 8, 4, 2, "tm")
	if tw.OutDim() != 12 {
		t.Fatalf("OutDim = %d", tw.OutDim())
	}
	y := tw.Forward(tensor.RandN(r, 1, 5, 3, 8))
	if y.Dim(0) != 5 || y.Dim(1) != 12 {
		t.Fatalf("shape %v", y.Shape())
	}
}

func TestPassThroughRoundTrip(t *testing.T) {
	r := tensor.NewRNG(4)
	tw := NewPassThrough(3, 4)
	x := tensor.RandN(r, 1, 2, 3, 4)
	y := tw.Forward(x)
	if y.Dim(1) != 12 {
		t.Fatalf("passthrough OutDim %v", y.Shape())
	}
	dx := tw.Backward(y)
	if !dx.Equal(x) {
		t.Fatal("passthrough backward must be identity")
	}
}

// TestTowerForwardKeepsOnePass runs each tower type's Forward 100 times
// with no Backward, as an evaluation would: the module's tape must hold
// one pass's records, and the Backward after them must empty it.
func TestTowerForwardKeepsOnePass(t *testing.T) {
	r := tensor.NewRNG(10)
	x := tensor.RandN(r, 1, 3, 2, 4)
	dlrm := NewDLRMTower(r, 2, 4, 1, 1, 2, "d")
	dcn := NewDCNTower(r, 2, 4, 2, 2, "c")
	for _, tc := range []struct {
		m    sptt.TowerModule
		tape *nn.Tape
	}{{dlrm, &dlrm.tape}, {dcn, &dcn.tape}} {
		tc.m.Forward(x)
		one := tc.tape.Len()
		for range 100 {
			tc.m.Forward(x)
		}
		if n := tc.tape.Len(); n != one || one == 0 {
			t.Fatalf("%T: tape holds %d records after 100 Forwards, want one pass's %d", tc.m, n, one)
		}
		tc.m.Backward(tensor.New(3, tc.m.OutDim()))
		if n := tc.tape.Len(); n != 0 {
			t.Fatalf("%T: tape holds %d records after Backward, want 0", tc.m, n)
		}
	}
}

// gradient checks via weighted-sum loss.

func checkTowerGradients(t *testing.T, name string, tw sptt.TowerModule, x *tensor.Tensor, params []*nn.Param) {
	t.Helper()
	coeff := tensor.RandN(tensor.NewRNG(99), 1, x.Dim(0), tw.OutDim())
	lossFn := func() float64 {
		y := tw.Forward(x)
		s := 0.0
		for i, v := range y.Data() {
			s += float64(coeff.Data()[i]) * float64(v)
		}
		return s
	}
	for _, p := range params {
		p.ZeroGrad()
	}
	lossFn()
	dx := tw.Backward(coeff)

	const eps = 1e-3
	check := func(label string, value, analytic *tensor.Tensor) {
		data := value.Data()
		for i := range data {
			orig := data[i]
			data[i] = orig + eps
			up := lossFn()
			data[i] = orig - eps
			down := lossFn()
			data[i] = orig
			num := (up - down) / (2 * eps)
			got := float64(analytic.Data()[i])
			scale := math.Max(1, math.Max(math.Abs(num), math.Abs(got)))
			if math.Abs(num-got)/scale > 1e-2 {
				t.Fatalf("%s %s grad[%d]: numerical %v vs analytic %v", name, label, i, num, got)
			}
		}
	}
	check("dX", x, dx)
	for _, p := range params {
		check(p.Name, p.Value, p.Grad)
	}
}

func TestDLRMTowerGradients(t *testing.T) {
	r := tensor.NewRNG(5)
	tw := NewDLRMTower(r, 3, 4, 1, 1, 2, "tm")
	x := tensor.RandN(r, 1, 2, 3, 4)
	checkTowerGradients(t, "dlrm-tm", tw, x, tw.Params())
}

func TestDLRMTowerGradientsPOnly(t *testing.T) {
	r := tensor.NewRNG(6)
	tw := NewDLRMTower(r, 3, 4, 0, 2, 3, "tm")
	x := tensor.RandN(r, 1, 2, 3, 4)
	checkTowerGradients(t, "dlrm-tm-p", tw, x, tw.Params())
}

func TestDCNTowerGradients(t *testing.T) {
	r := tensor.NewRNG(7)
	tw := NewDCNTower(r, 2, 3, 2, 2, "tm")
	x := tensor.RandN(r, 0.5, 2, 2, 3)
	checkTowerGradients(t, "dcn-tm", tw, x, tw.Params())
}

func TestCompressionRatio(t *testing.T) {
	// Table 5: 26 features, N=128, 8 towers, c=1 p=0: O_t = D*F_t.
	// ΣO = D*26, so CR = 26*128/(26*D) = 128/D.
	for _, tc := range []struct {
		d    int
		want float64
	}{{64, 2}, {32, 4}, {16, 8}, {8, 16}} {
		outs := []int{tc.d * 4, tc.d * 4, tc.d * 3, tc.d * 3, tc.d * 3, tc.d * 3, tc.d * 3, tc.d * 3}
		got := CompressionRatio(26, 128, outs)
		if math.Abs(got-tc.want) > 1e-9 {
			t.Fatalf("CR for D=%d: got %v want %v", tc.d, got, tc.want)
		}
	}
	if CompressionRatio(4, 4, []int{}) != 0 {
		t.Fatal("empty towers should give CR 0")
	}
}

// spttConfig builds a small tower-aligned config for integration tests.
func spttConfig(g, l, b, n, nf int) sptt.Config {
	cfg := sptt.Config{G: g, L: l, B: b, N: n}
	tt := g / l
	towersList := make([][]int, tt)
	for f := 0; f < nf; f++ {
		cfg.Features = append(cfg.Features, sptt.FeatureSpec{
			Name: "f", Cardinality: 20 + f, Hot: 1,
		})
		towersList[f%tt] = append(towersList[f%tt], f)
	}
	towerOf, rankOf, err := sptt.TowerAssignment(towersList, nf, l)
	if err != nil {
		panic(err)
	}
	cfg.TowerOf, cfg.RankOf = towerOf, rankOf
	return cfg
}

func randomInputs(cfg sptt.Config, seed uint64) []*sptt.Inputs {
	r := tensor.NewRNG(seed)
	ins := make([]*sptt.Inputs, cfg.G)
	for g := 0; g < cfg.G; g++ {
		in := &sptt.Inputs{Indices: make([][]int32, cfg.F()), Offsets: make([][]int32, cfg.F())}
		for f, spec := range cfg.Features {
			off := make([]int32, cfg.B)
			idx := make([]int32, cfg.B)
			for s := 0; s < cfg.B; s++ {
				off[s] = int32(s)
				idx[s] = int32(r.Intn(spec.Cardinality))
			}
			in.Indices[f] = idx
			in.Offsets[f] = off
		}
		ins[g] = in
	}
	return ins
}

// TestDistributedTMMatchesLocalMath: the compressed SPTT dataflow must give,
// on every rank, exactly what applying the tower modules locally to the
// baseline embeddings gives — hierarchical interaction is a model property,
// not a dataflow artifact.
func TestDistributedTMMatchesLocalMath(t *testing.T) {
	cfg := spttConfig(4, 2, 3, 4, 6)
	eng, err := sptt.NewEngine(cfg, 31)
	if err != nil {
		t.Fatal(err)
	}
	inputs := randomInputs(cfg, 32)

	mods := BuildReplicas(cfg, 41, func(r *tensor.RNG, tower, ft int) sptt.TowerModule {
		return NewDLRMTower(r, ft, cfg.N, 1, 1, 3, "tm")
	})
	outs, _ := eng.SPTTForwardCompressed(inputs, mods, sptt.Options{})

	// Local reference: baseline embeddings -> per-tower select -> TM.
	base, _ := eng.BaselineForward(inputs)
	refMods := BuildReplicas(cfg, 41, func(r *tensor.RNG, tower, ft int) sptt.TowerModule {
		return NewDLRMTower(r, ft, cfg.N, 1, 1, 3, "tm")
	})
	for rnk := 0; rnk < cfg.G; rnk++ {
		var parts []*tensor.Tensor
		for tw := 0; tw < cfg.T(); tw++ {
			feats := cfg.TowerFeatures(tw)
			sel := tensor.SelectFeatures(base[rnk], feats)
			parts = append(parts, refMods[tw*cfg.L].Forward(sel))
		}
		want := tensor.Concat(1, parts...)
		if !outs[rnk].AllClose(want, 1e-5, 1e-6) {
			t.Fatalf("rank %d: distributed TM output differs by %v", rnk, outs[rnk].MaxAbsDiff(want))
		}
	}
}

// TestDistributedTMGradientSync: after SPTT backward, every replica of a
// tower holds the same reduced gradient, equal to a single-process module
// run over the full global batch.
func TestDistributedTMGradientSync(t *testing.T) {
	cfg := spttConfig(4, 2, 2, 3, 4)
	eng, err := sptt.NewEngine(cfg, 51)
	if err != nil {
		t.Fatal(err)
	}
	inputs := randomInputs(cfg, 52)
	mods := BuildReplicas(cfg, 53, func(r *tensor.RNG, tower, ft int) sptt.TowerModule {
		return NewDLRMTower(r, ft, cfg.N, 1, 0, 2, "tm")
	})
	outs, st := eng.SPTTForwardCompressed(inputs, mods, sptt.Options{})

	rng := tensor.NewRNG(54)
	dOuts := make([]*tensor.Tensor, cfg.G)
	for g := range dOuts {
		dOuts[g] = tensor.RandN(rng, 1, outs[g].Dim(0), outs[g].Dim(1))
	}
	eng.SPTTBackward(st, dOuts)

	// Replicas within a host must agree bit-for-bit after the reduction.
	for h := 0; h < cfg.T(); h++ {
		p0 := mods[h*cfg.L].Params()
		for j := 1; j < cfg.L; j++ {
			pj := mods[h*cfg.L+j].Params()
			for k := range p0 {
				if !p0[k].Grad.Equal(pj[k].Grad) {
					t.Fatalf("tower %d replica %d grad %s diverged", h, j, p0[k].Name)
				}
			}
		}
	}

	// Single-process reference: same module over the concatenated global
	// batch, with the same upstream gradient slices.
	refMods := BuildReplicas(cfg, 53, func(r *tensor.RNG, tower, ft int) sptt.TowerModule {
		return NewDLRMTower(r, ft, cfg.N, 1, 0, 2, "tm")
	})
	base, _ := eng.BaselineForward(inputs)
	for h := 0; h < cfg.T(); h++ {
		feats := cfg.TowerFeatures(h)
		ref := refMods[h*cfg.L]
		// Concatenate all ranks' batches (rank order) for this tower.
		var xs []*tensor.Tensor
		for rnk := 0; rnk < cfg.G; rnk++ {
			xs = append(xs, tensor.SelectFeatures(base[rnk], feats))
		}
		x := tensor.Concat(0, xs...)
		ref.Forward(x)
		// Upstream gradient: slice each rank's dOut at this tower's column
		// range, concatenated in rank order.
		width := ref.OutDim()
		colLo := 0
		for tw := 0; tw < h; tw++ {
			colLo += mods[tw*cfg.L].OutDim()
		}
		var dys []*tensor.Tensor
		for rnk := 0; rnk < cfg.G; rnk++ {
			cols := tensor.SplitCols(dOuts[rnk], []int{colLo, width, dOuts[rnk].Dim(1) - colLo - width})
			dys = append(dys, cols[1])
		}
		ref.Backward(tensor.Concat(0, dys...))

		got := mods[h*cfg.L].Params()
		want := ref.Params()
		for k := range want {
			if !got[k].Grad.AllClose(want[k].Grad, 1e-4, 1e-5) {
				t.Fatalf("tower %d: reduced grad %s differs from single-process by %v",
					h, want[k].Name, got[k].Grad.MaxAbsDiff(want[k].Grad))
			}
		}
	}
}

// TestCompressedOutputIsSmaller verifies the system-side point of TM: the
// peer AlltoAll moves ~CR× fewer bytes than the pass-through transform.
func TestCompressedOutputIsSmaller(t *testing.T) {
	cfg := spttConfig(4, 2, 2, 8, 8)
	eng, err := sptt.NewEngine(cfg, 61)
	if err != nil {
		t.Fatal(err)
	}
	inputs := randomInputs(cfg, 62)

	_, plain := eng.SPTTForward(inputs, sptt.Options{})
	mods := BuildReplicas(cfg, 63, func(r *tensor.RNG, tower, ft int) sptt.TowerModule {
		return NewDLRMTower(r, ft, cfg.N, 1, 0, 2, "tm") // O_t = 2*ft vs ft*8: CR 4
	})
	_, comp := eng.SPTTForwardCompressed(inputs, mods, sptt.Options{})

	sum := func(m [][]int64) int64 {
		var s int64
		for i := range m {
			for j, b := range m[i] {
				if i != j {
					s += b
				}
			}
		}
		return s
	}
	plainPeer, compPeer := sum(plain.PeerTraffic), sum(comp.PeerTraffic)
	if compPeer*4 != plainPeer {
		t.Fatalf("peer traffic: compressed %d, plain %d, want exactly 4x reduction", compPeer, plainPeer)
	}
}

func TestBuildReplicasIdenticalWithinTower(t *testing.T) {
	cfg := spttConfig(4, 2, 1, 4, 4)
	mods := BuildReplicas(cfg, 71, func(r *tensor.RNG, tower, ft int) sptt.TowerModule {
		return NewDCNTower(r, ft, cfg.N, 2, 1, "tm")
	})
	for h := 0; h < cfg.T(); h++ {
		a := mods[h*cfg.L].Params()
		b := mods[h*cfg.L+1].Params()
		for k := range a {
			if !a[k].Value.Equal(b[k].Value) {
				t.Fatalf("tower %d replicas differ at init", h)
			}
		}
	}
	// Different towers must differ.
	a := mods[0].Params()[0].Value
	b := mods[cfg.L].Params()[0].Value
	if a.Equal(b) {
		t.Fatal("different towers should have different init")
	}
}

// BuildReplicas constructs per-rank tower-module replicas for a tower-
// aligned SPTT config: every rank of host t receives an identically
// initialized module for tower t (same derived seed), which is the
// data-parallel-within-tower deployment the distributed path requires.
// make builds one module for tower t over ft features.
func BuildReplicas(cfg sptt.Config, seed uint64, mk func(r *tensor.RNG, tower, ft int) sptt.TowerModule) []sptt.TowerModule {
	root := tensor.NewRNG(seed)
	towerSeeds := make([]uint64, cfg.T())
	for t := range towerSeeds {
		towerSeeds[t] = root.Uint64()
	}
	mods := make([]sptt.TowerModule, cfg.G)
	for g := 0; g < cfg.G; g++ {
		t := g / cfg.L
		ft := len(cfg.TowerFeatures(t))
		mods[g] = mk(tensor.NewRNG(towerSeeds[t]), t, ft)
	}
	return mods
}
