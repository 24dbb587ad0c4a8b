package sptt

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"testing"
	"testing/quick"
	"time"

	"dmt/internal/comm"
	"dmt/internal/embeddings"
	"dmt/internal/nn"
	"dmt/internal/tensor"
)

// makeConfig builds a tower-aligned config: features are dealt round-robin
// to towers, then placed round-robin within each tower's host.
func makeConfig(g, l, b, n, nFeatures, card, hot int) Config {
	cfg := Config{G: g, L: l, B: b, N: n}
	t := g / l
	towers := make([][]int, t)
	for f := 0; f < nFeatures; f++ {
		cfg.Features = append(cfg.Features, FeatureSpec{
			Name: "f", Cardinality: card + f, Hot: hot,
		})
		towers[f%t] = append(towers[f%t], f)
	}
	towerOf, rankOf, err := TowerAssignment(towers, nFeatures, l)
	if err != nil {
		panic(err)
	}
	cfg.TowerOf, cfg.RankOf = towerOf, rankOf
	return cfg
}

// makeInputs builds deterministic random inputs for every rank.
func makeInputs(cfg Config, seed uint64) []*Inputs {
	r := tensor.NewRNG(seed)
	ins := make([]*Inputs, cfg.G)
	for g := 0; g < cfg.G; g++ {
		in := &Inputs{
			Indices: make([][]int32, cfg.F()),
			Offsets: make([][]int32, cfg.F()),
		}
		for f, spec := range cfg.Features {
			off := make([]int32, cfg.B)
			var idx []int32
			for s := 0; s < cfg.B; s++ {
				off[s] = int32(len(idx))
				// Variable bag sizes exercise the V-variant encoding:
				// between 1 and Hot entries, occasionally empty.
				bag := 1 + r.Intn(spec.Hot)
				if r.Intn(7) == 0 {
					bag = 0
				}
				for k := 0; k < bag; k++ {
					idx = append(idx, int32(r.Intn(spec.Cardinality)))
				}
			}
			in.Indices[f] = idx
			in.Offsets[f] = off
		}
		ins[g] = in
	}
	return ins
}

func TestPeerOrderPaperExample(t *testing.T) {
	// Figure 7's walk-through: G=4, L=2 gives peer order (0, 2, 1, 3).
	got := PeerOrder(4, 2)
	want := []int{0, 2, 1, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("peer order %v, want %v", got, want)
		}
	}
}

func TestPeerOrderGroupsPeersContiguously(t *testing.T) {
	for _, tc := range [][2]int{{8, 2}, {8, 4}, {16, 4}, {12, 3}} {
		g, l := tc[0], tc[1]
		order := PeerOrder(g, l)
		tt := g / l
		for cls := 0; cls < l; cls++ {
			for k := 0; k < tt; k++ {
				r := order[cls*tt+k]
				if r%l != cls {
					t.Fatalf("G=%d L=%d: position %d has rank %d (class %d, want %d)",
						g, l, cls*tt+k, r, r%l, cls)
				}
				if r/l != k {
					t.Fatalf("G=%d L=%d: class %d not host-ordered: %v", g, l, cls, order)
				}
			}
		}
	}
}

func TestTowerAssignmentErrors(t *testing.T) {
	if _, _, err := TowerAssignment([][]int{{0, 1}}, 3, 2); err == nil {
		t.Fatal("unassigned feature must error")
	}
	if _, _, err := TowerAssignment([][]int{{0, 0}}, 1, 2); err == nil {
		t.Fatal("double assignment must error")
	}
	if _, _, err := TowerAssignment([][]int{{5}}, 2, 2); err == nil {
		t.Fatal("invalid feature id must error")
	}
}

func TestConfigValidate(t *testing.T) {
	cfg := makeConfig(4, 2, 2, 3, 6, 10, 1)
	if err := cfg.Validate(true); err != nil {
		t.Fatal(err)
	}
	bad := cfg
	bad.RankOf = append([]int(nil), cfg.RankOf...)
	bad.RankOf[0] = 3 // feature 0 is tower 0's; rank 3 is host 1
	if err := bad.Validate(true); err == nil {
		t.Fatal("cross-host ownership must fail SPTT validation")
	}
	if err := bad.Validate(false); err != nil {
		t.Fatal("baseline validation should not enforce tower locality")
	}
}

func TestEncodeDecodeBagsRoundTrip(t *testing.T) {
	in := &Inputs{
		Indices: [][]int32{{5, 6, 7}, {9}},
		Offsets: [][]int32{{0, 1}, {0, 1}}, // f0 bags {5},{6,7}; f1 bags {9},{}
	}
	payload := encodeBags([]int{0, 1}, in, 2)
	idx, off := decodeBags(payload, 2, 2)
	if len(idx[0]) != 3 || idx[0][2] != 7 || off[0][1] != 1 {
		t.Fatalf("feature 0 decode wrong: %v %v", idx[0], off[0])
	}
	if len(idx[1]) != 1 || idx[1][0] != 9 || off[1][1] != 1 {
		t.Fatalf("feature 1 decode wrong: %v %v", idx[1], off[1])
	}
}

// TestSPTTMatchesBaseline is the core semantic-preservation theorem of the
// paper (§3.1, Table 3): the transformed dataflow produces bit-identical
// embeddings on every rank.
func TestSPTTMatchesBaseline(t *testing.T) {
	cfg := makeConfig(8, 2, 3, 4, 10, 50, 3)
	eng, err := NewEngine(cfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	inputs := makeInputs(cfg, 2)
	base, _ := eng.BaselineForward(inputs)
	spttOut, _ := eng.SPTTForward(inputs, Options{})
	for r := 0; r < cfg.G; r++ {
		if !base[r].Equal(spttOut[r]) {
			t.Fatalf("rank %d: SPTT diverged from baseline by %v", r, base[r].MaxAbsDiff(spttOut[r]))
		}
	}
}

func TestSPTTBackwardMatchesBaseline(t *testing.T) {
	cfg := makeConfig(4, 2, 2, 3, 6, 30, 2)
	eng, err := NewEngine(cfg, 5)
	if err != nil {
		t.Fatal(err)
	}
	inputs := makeInputs(cfg, 6)

	_, bst := eng.BaselineForward(inputs)
	_, sst := eng.SPTTForward(inputs, Options{})

	// A deterministic upstream gradient per rank.
	r := tensor.NewRNG(7)
	dOuts := make([]*tensor.Tensor, cfg.G)
	for g := range dOuts {
		dOuts[g] = tensor.RandN(r, 1, cfg.B, cfg.F(), cfg.N)
	}
	bg := eng.SPTTBackward(bst, dOuts)
	sg := eng.SPTTBackward(sst, dOuts)

	if len(bg) != cfg.F() || len(sg) != cfg.F() {
		t.Fatalf("gradient coverage: baseline %d, SPTT %d, want %d", len(bg), len(sg), cfg.F())
	}
	for f := 0; f < cfg.F(); f++ {
		b, s := bg[f], sg[f]
		if len(b.Rows) != len(s.Rows) {
			t.Fatalf("feature %d touched-row mismatch", f)
		}
		for i := range b.Rows {
			if b.Rows[i] != s.Rows[i] {
				t.Fatalf("feature %d row order mismatch", f)
			}
		}
		if !b.Grads.Equal(s.Grads) {
			t.Fatalf("feature %d gradient mismatch: %v", f, b.Grads.MaxAbsDiff(s.Grads))
		}
	}
}

// sameSparseGrads reports whether two backward results touch the same rows
// of the same features with bit-identical gradients.
func sameSparseGrads(a, b map[int]*nn.SparseGrad) bool {
	if len(a) != len(b) {
		return false
	}
	for f, ga := range a {
		gb := b[f]
		if gb == nil || len(ga.Rows) != len(gb.Rows) || !ga.Grads.Equal(gb.Grads) {
			return false
		}
		for i := range ga.Rows {
			if ga.Rows[i] != gb.Rows[i] {
				return false
			}
		}
	}
	return true
}

// TestQuickSPTTEquivalence is the property-based form of the theorem:
// random cluster shapes, feature counts and bag sizes, and for
// each several input draws through ONE engine (so every flow also runs on
// communicator families another flow has already used). The tower flow must
// match the flat one bit for bit, outputs and sparse gradients.
func TestQuickSPTTEquivalence(t *testing.T) {
	f := func(seed uint64, lSel, tSel, bSel, nfSel, hotSel uint8) bool {
		l := []int{1, 2, 4}[int(lSel)%3]
		tt := []int{2, 3, 4}[int(tSel)%3]
		g := l * tt
		b := int(bSel)%3 + 1
		nf := int(nfSel)%7 + tt // at least one feature per tower
		hot := int(hotSel)%3 + 1
		cfg := makeConfig(g, l, b, 3, nf, 20, hot)
		eng, err := NewEngine(cfg, seed)
		if err != nil {
			return false
		}
		for draw := uint64(1); draw <= 3; draw++ {
			inputs := makeInputs(cfg, seed+draw)
			dOuts := randomGrads(cfg, seed+10*draw, 0)
			base, bst := eng.BaselineForward(inputs)
			baseGrads := eng.SPTTBackward(bst, dOuts)

			out, st := eng.SPTTForward(inputs, Options{})
			for r := 0; r < g; r++ {
				if !base[r].Equal(out[r]) {
					return false
				}
			}
			if !sameSparseGrads(baseGrads, eng.SPTTBackward(st, dOuts)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// TestBytesOnWirePreserved checks §3.1.2's accounting: SPTT does not reduce
// total bytes on wire — the cross-host embedding volume of step (f) equals
// the baseline AlltoAll's cross-host volume; SPTT merely reroutes the
// intra-host share over NVLink.
func TestBytesOnWirePreserved(t *testing.T) {
	cfg := makeConfig(8, 2, 2, 4, 8, 30, 1)
	eng, err := NewEngine(cfg, 15)
	if err != nil {
		t.Fatal(err)
	}
	inputs := makeInputs(cfg, 16)

	_, bst := eng.BaselineForward(inputs)
	_, sst := eng.SPTTForward(inputs, Options{})

	hostOf := func(r int) int { return r / cfg.L }
	crossBytes := func(m [][]int64) int64 {
		var total int64
		for s := range m {
			for d, b := range m[s] {
				if s != d && hostOf(s) != hostOf(d) {
					total += b
				}
			}
		}
		return total
	}
	// Baseline: subtract the index-distribution traffic (step a) by running
	// the comparison on the embedding-return phase only. Index payloads are
	// identical in both paths, so comparing full-global vs (global+peer)
	// works: baselineCross - spttGlobalCross == spttPeerCross.
	baseCross := crossBytes(bst.GlobalTraffic)
	spttIdxCross := crossBytes(sst.GlobalTraffic)
	spttPeerCross := crossBytes(sst.PeerTraffic)
	if got, want := spttPeerCross, baseCross-spttIdxCross; got != want {
		t.Fatalf("cross-host embedding bytes: SPTT %d vs baseline %d", got, want)
	}
	// And the intra-host AlltoAll must carry real volume (the NVLink share).
	var hostBytes int64
	for s := range sst.HostTraffic {
		for d, b := range sst.HostTraffic[s] {
			if s != d {
				hostBytes += b
			}
		}
	}
	if hostBytes == 0 {
		t.Fatal("intra-host step (d) moved no data")
	}
	// Peer AlltoAlls must never cross peer classes.
	for s := range sst.PeerTraffic {
		for d, b := range sst.PeerTraffic[s] {
			if b > 0 && s%cfg.L != d%cfg.L {
				t.Fatalf("peer traffic leaked across classes: %d->%d", s, d)
			}
		}
	}
}

func TestDistributedSparseSGDStep(t *testing.T) {
	// One full forward/backward/update cycle through SPTT must move only
	// touched rows, identically to a baseline-updated copy.
	cfg := makeConfig(4, 2, 2, 3, 4, 16, 2)
	engA, _ := NewEngine(cfg, 21)
	engB, _ := NewEngine(cfg, 21)
	inputs := makeInputs(cfg, 22)

	r := tensor.NewRNG(23)
	dOuts := make([]*tensor.Tensor, cfg.G)
	for g := range dOuts {
		dOuts[g] = tensor.RandN(r, 1, cfg.B, cfg.F(), cfg.N)
	}
	// The trainer's update path: the sparse gradients, in feature order,
	// through an embedding store's SparseAdam.
	update := func(e *Engine, grads map[int]*nn.SparseGrad) {
		var ups []embeddings.Upd
		for f := range cfg.Features {
			if g := grads[f]; g != nil {
				ups = append(ups, embeddings.Upd{Table: f, Rows: g.Rows, GradRows: g.Grads})
			}
		}
		embeddings.NewLocal(e.Tables, 0.1).Update(ups)
	}

	_, stA := engA.BaselineForward(inputs)
	update(engA, engA.SPTTBackward(stA, dOuts))

	_, stB := engB.SPTTForward(inputs, Options{})
	update(engB, engB.SPTTBackward(stB, dOuts))

	for f := range cfg.Features {
		if !engA.Tables[f].Table.Equal(engB.Tables[f].Table) {
			t.Fatalf("tables diverged after one distributed step (feature %d)", f)
		}
	}
}

// TestOverlapHookBitwiseNeutral: the Options.Overlap hook is a pure
// scheduling device — it must run exactly once per rank while the step (f)
// exchange is in flight, and the dataflow's outputs must be bit-identical
// with and without it. On a network, the modeled compute the hook charges
// hides part of the exchange.
func TestOverlapHookBitwiseNeutral(t *testing.T) {
	cfg := makeConfig(8, 2, 4, 8, 16, 50, 1)
	inputs := makeInputs(cfg, 3)
	eng, err := NewEngine(cfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	plain, _ := eng.SPTTForward(inputs, Options{})

	calls := make([]int, cfg.G)
	net := comm.NewNetwork(twoTier{cfg.L}, cfg.G)
	hook := func(rank int) {
		calls[rank]++
		net.Clock(rank).Advance(time.Microsecond)
	}
	hooked, st := eng.SPTTForward(inputs, Options{Comms: Comms{Net: net, Overlap: hook}})
	for g := 0; g < cfg.G; g++ {
		if calls[g] != 1 {
			t.Fatalf("rank %d: overlap hook ran %d times, want 1", g, calls[g])
		}
		if !plain[g].Equal(hooked[g]) {
			t.Fatalf("rank %d: overlap hook changed the output", g)
		}
	}
	if st.HiddenComm <= 0 {
		t.Fatalf("hooked run reported no hidden comm window: %v", st.HiddenComm)
	}
}

// poolBackwardMap is the kernel nn.PoolBackward replaced, kept as its oracle:
// one heap row per touched table row behind a map, copied out in sorted
// order.
func poolBackwardMap(indices, offsets []int32, dPooled *tensor.Tensor) *nn.SparseGrad {
	b := len(offsets)
	dim := dPooled.Dim(1)
	acc := make(map[int][]float32)
	for s := 0; s < b; s++ {
		lo, hi := nn.BagBounds(offsets, s, len(indices))
		if lo == hi {
			continue
		}
		g := dPooled.Row(s)
		for _, ix := range indices[lo:hi] {
			row := acc[int(ix)]
			if row == nil {
				row = make([]float32, dim)
				acc[int(ix)] = row
			}
			for d := 0; d < dim; d++ {
				row[d] += g[d]
			}
		}
	}
	rows := make([]int, 0, len(acc))
	for r := range acc {
		rows = append(rows, r)
	}
	sort.Ints(rows)
	grads := tensor.New(len(rows), dim)
	for i, r := range rows {
		copy(grads.Row(i), acc[r])
	}
	return &nn.SparseGrad{Rows: rows, Grads: grads}
}

// checkPoolBackward runs a card-row table's PoolBackward and its oracle
// over one bag layout and requires the same rows and bit-equal gradients,
// twice on the one table: a scratch index not handed back all zero would
// misnumber the second call's rows.
func checkPoolBackward(t *testing.T, indices, offsets []int32, card, dim int, seed uint64) {
	t.Helper()
	r := tensor.NewRNG(seed)
	dPooled := tensor.RandUniform(r, -1, 1, len(offsets), dim)
	table := nn.NewEmbeddingBag(r, card, dim, "t")
	for call := range 2 {
		got := table.PoolBackward(indices, offsets, dPooled)
		if err := matchPoolBackward(got, indices, offsets, dPooled); err != nil {
			t.Fatalf("call %d: %v", call+1, err)
		}
	}
}

// matchPoolBackward compares one PoolBackward result with the oracle's:
// the same rows and bit-equal gradients.
func matchPoolBackward(got *nn.SparseGrad, indices, offsets []int32, dPooled *tensor.Tensor) error {
	want := poolBackwardMap(indices, offsets, dPooled)
	if !slices.Equal(got.Rows, want.Rows) {
		return fmt.Errorf("rows %v, want %v (indices %v offsets %v)", got.Rows, want.Rows, indices, offsets)
	}
	if got.Grads.Dim(0) != len(want.Rows) || got.Grads.Dim(1) != dPooled.Dim(1) {
		return fmt.Errorf("grads shaped %v for %d rows of %d", got.Grads.Shape(), len(want.Rows), dPooled.Dim(1))
	}
	for i, w := range want.Grads.Data() {
		if g := got.Grads.Data()[i]; math.Float32bits(g) != math.Float32bits(w) {
			return fmt.Errorf("grad element %d = %x, want %x (indices %v offsets %v)", i, math.Float32bits(g), math.Float32bits(w), indices, offsets)
		}
	}
	return nil
}

// TestPoolBackwardMatchesMapOracle: the slot-indexed kernel equals the
// map-based one bit for bit — the rows' additions happen in bag order from
// zero in both — over empty bags, ids repeated inside
// and across bags, a leading non-zero offset, and ids at both table ends.
// The large table's layouts scatter a few ids over most of its rows, so
// the scan for their order crosses a span far wider than the ids.
func TestPoolBackwardMatchesMapOracle(t *testing.T) {
	const card, dim = 11, 5
	const large = 4096
	layouts := []struct {
		name             string
		card             int
		indices, offsets []int32
	}{
		{"no bags", card, nil, nil},
		{"all bags empty", card, nil, []int32{0, 0, 0}},
		{"single-hot", card, []int32{3, 1, 4}, []int32{0, 1, 2}},
		{"repeats inside a bag", card, []int32{7, 7, 7, 2}, []int32{0, 3}},
		{"repeats across bags", card, []int32{5, 2, 5, 2, 5}, []int32{0, 2, 4}},
		{"empty bags between", card, []int32{9, 1, 9}, []int32{0, 0, 1, 1, 1, 3}},
		{"table ends", card, []int32{0, card - 1, card - 1, 0}, []int32{0, 1, 3}},
		{"leading offset skips a prefix", card, []int32{8, 6, 4, 6, 1}, []int32{2, 3}},
		{"descending ids", card, []int32{10, 9, 8, 7, 6, 5, 4, 3, 2, 1, 0}, []int32{0, 4, 4, 9}},
		{"sparse over a large table", large, []int32{4000, 3, 2048, 3, large - 1, 0}, []int32{0, 2, 2, 5}},
		{"sparse, repeats across bags", large, []int32{1000, 3000, 1000, 3000, 17}, []int32{0, 1, 3}},
	}
	for i, l := range layouts {
		t.Run(l.name, func(t *testing.T) {
			checkPoolBackward(t, l.indices, l.offsets, l.card, dim, uint64(i)+1)
		})
	}
	// Random layouts: bag sizes 0..5 over a small table, so repeats abound,
	// and over a large one, so the ids are few and far apart.
	r := tensor.NewRNG(77)
	for trial := 0; trial < 400; trial++ {
		tc := card
		if trial%2 == 1 {
			tc = large
		}
		var indices, offsets []int32
		lead := r.Intn(3) // entries before the first bag
		for k := 0; k < lead; k++ {
			indices = append(indices, int32(r.Intn(tc)))
		}
		for s := r.Intn(9); s > 0; s-- {
			offsets = append(offsets, int32(len(indices)))
			for k := r.Intn(6); k > 0; k-- {
				indices = append(indices, int32(r.Intn(tc)))
			}
		}
		checkPoolBackward(t, indices, offsets, tc, dim, uint64(trial)+100)
	}
}

// FuzzPoolBackward: nn.PoolBackward equals its oracle on arbitrary bag
// payloads — sizes[s]%7 entries in bag s, ids drawn two bytes at a time
// from the id bytes, over a table of 1 to 4096 rows the input picks, so
// the ids may be dense in a small table or few and far apart in a large one.
func FuzzPoolBackward(f *testing.F) {
	f.Add([]byte{1, 0, 2, 3}, []byte{4, 4, 9, 200, 0, 31}, uint16(31))
	f.Add([]byte{}, []byte{}, uint16(0))
	f.Add([]byte{6, 6, 6}, []byte{1}, uint16(7))
	f.Add([]byte{2, 3}, []byte{15, 160, 0, 3, 8, 0, 0, 3}, uint16(4095))
	f.Fuzz(func(t *testing.T, sizes, ids []byte, cardSel uint16) {
		card := int(cardSel)%4096 + 1
		var indices, offsets []int32
		next := 0
		for _, sz := range sizes {
			offsets = append(offsets, int32(len(indices)))
			for k := 0; k < int(sz)%7; k++ {
				id := next
				if len(ids) > 0 {
					id = int(ids[2*next%len(ids)])<<8 | int(ids[(2*next+1)%len(ids)])
				}
				indices = append(indices, int32(id%card))
				next++
			}
		}
		checkPoolBackward(t, indices, offsets, card, 3, uint64(len(sizes))+1)
	})
}
