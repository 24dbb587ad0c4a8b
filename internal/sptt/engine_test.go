package sptt

import (
	"fmt"
	"math"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"

	"dmt/internal/comm"
	"dmt/internal/embeddings"
	"dmt/internal/nn"
	"dmt/internal/tensor"
)

// flatTower is the identity tower module, (S, F_t, N) <-> (S, F_t*N), with
// switches that make one replica fail.
type flatTower struct {
	ft, n            int
	failFwd, failBwd bool
}

func (m *flatTower) Forward(x *tensor.Tensor) *tensor.Tensor {
	if m.failFwd {
		panic("tower module forward failed")
	}
	return x.Reshape(x.Dim(0), m.ft*m.n).Clone()
}

func (m *flatTower) Backward(dy *tensor.Tensor) *tensor.Tensor {
	if m.failBwd {
		panic("tower module backward failed")
	}
	return dy.Reshape(dy.Dim(0), m.ft, m.n).Clone()
}
func (m *flatTower) OutDim() int         { return m.ft * m.n }
func (m *flatTower) Params() []*nn.Param { return nil }

func flatTowers(cfg Config) []TowerModule {
	mods := make([]TowerModule, cfg.G)
	for r := range mods {
		mods[r] = &flatTower{ft: len(cfg.TowerFeatures(r / cfg.L)), n: cfg.N}
	}
	return mods
}

// failingTier hands one rank a store whose Lookup panics.
type failingTier struct {
	embeddings.Tier
	rank int
}

type failingStore struct{ embeddings.Store }

func (failingStore) Lookup([]embeddings.Req) []*tensor.Tensor { panic("embedding lookup failed") }

func (t failingTier) Client(rank int) embeddings.Store {
	if rank == t.rank {
		return failingStore{t.Tier.Client(rank)}
	}
	return t.Tier.Client(rank)
}

func randomGrads(cfg Config, seed uint64, width int) []*tensor.Tensor {
	rng := tensor.NewRNG(seed)
	dOuts := make([]*tensor.Tensor, cfg.G)
	for r := range dOuts {
		if width > 0 {
			dOuts[r] = tensor.RandN(rng, 1, cfg.B, width)
		} else {
			dOuts[r] = tensor.RandN(rng, 1, cfg.B, cfg.F(), cfg.N)
		}
	}
	return dOuts
}

// TestRankPanicNeverHangs injects a rank-local failure into every flow,
// forward and backward, at a point where the healthy ranks go on to block
// in a host- or peer-group collective the failed rank never joins. Each
// call must re-raise the failure with its rank attached instead of hanging,
// leave no rank goroutine behind, and leave the engine usable.
func TestRankPanicNeverHangs(t *testing.T) {
	cfg := makeConfig(8, 2, 2, 4, 8, 30, 2)
	inputs := makeInputs(cfg, 16)
	wide := cfg.F() * cfg.N
	badGrads := func(rank, width int) []*tensor.Tensor {
		dOuts := randomGrads(cfg, 17, width)
		dOuts[rank] = tensor.New(3)
		return dOuts
	}
	cases := []struct {
		name  string
		ranks []int // the failing ranks: the panic must be attributed to one of them
		run   func(e *Engine)
	}{
		{"flat forward, tier lookup fails", []int{3}, func(e *Engine) {
			good := e.Tier
			defer func() { e.Tier = good }()
			e.Tier = failingTier{good, 3}
			e.BaselineForward(inputs)
		}},
		{"tower forward, overlap hook fails", []int{5}, func(e *Engine) {
			e.SPTTForward(inputs, Options{Comms: Comms{Overlap: func(rank int) {
				if rank == 5 {
					panic("overlap hook failed")
				}
			}}})
		}},
		{"tower+module forward, module fails", []int{2}, func(e *Engine) {
			mods := flatTowers(cfg)
			mods[2].(*flatTower).failFwd = true
			e.SPTTForwardCompressed(inputs, mods, Options{})
		}},
		{"flat backward, wrong-shaped gradient", []int{6}, func(e *Engine) {
			_, st := e.BaselineForward(inputs)
			e.SPTTBackward(st, badGrads(6, 0))
		}},
		{"tower backward, wrong-shaped gradient", []int{1}, func(e *Engine) {
			_, st := e.SPTTForward(inputs, Options{})
			e.SPTTBackward(st, badGrads(1, 0))
		}},
		{"tower+module backward, wrong-shaped gradient", []int{4}, func(e *Engine) {
			_, st := e.SPTTForwardCompressed(inputs, flatTowers(cfg), Options{})
			e.SPTTBackward(st, badGrads(4, wide))
		}},
		{"tower+module backward, module fails", []int{7}, func(e *Engine) {
			mods := flatTowers(cfg)
			mods[7].(*flatTower).failBwd = true
			_, st := e.SPTTForwardCompressed(inputs, mods, Options{})
			e.SPTTBackward(st, randomGrads(cfg, 17, wide))
		}},
		{"tower+module backward, overlap hook fails", []int{0}, func(e *Engine) {
			_, st := e.SPTTForwardCompressed(inputs, flatTowers(cfg), Options{Comms: Comms{BwdOverlap: func(rank int) {
				if rank == 0 {
					panic("backward overlap hook failed")
				}
			}}})
			e.SPTTBackward(st, randomGrads(cfg, 17, wide))
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			eng, err := NewEngine(cfg, 15)
			if err != nil {
				t.Fatal(err)
			}
			want, _ := eng.BaselineForward(inputs)
			start := runtime.NumGoroutine()

			raised := make(chan any, 1)
			go func() {
				defer func() { raised <- recover() }()
				tc.run(eng)
			}()
			select {
			case p := <-raised:
				attributed := false
				for _, r := range tc.ranks {
					attributed = attributed || strings.HasPrefix(fmt.Sprint(p), fmt.Sprintf("comm: rank %d panicked: ", r))
				}
				if !attributed {
					t.Fatalf("want the failure attributed to one of ranks %v, got: %v", tc.ranks, p)
				}
			case <-time.After(20 * time.Second):
				t.Fatalf("hung: %d goroutines still parked", runtime.NumGoroutine()-start)
			}
			// The rank goroutines have all returned by now; give the last
			// of them a moment to finish exiting.
			for i := 0; runtime.NumGoroutine() > start && i < 2000; i++ {
				time.Sleep(time.Millisecond)
			}
			if n := runtime.NumGoroutine(); n > start {
				t.Fatalf("%d goroutines leaked", n-start)
			}

			got, _ := eng.SPTTForward(inputs, Options{})
			for r := range got {
				if !got[r].Equal(want[r]) {
					t.Fatalf("rank %d: engine gives different output after a failed call", r)
				}
			}
		})
	}
}

// TestInputsValidation: malformed sparse input is rejected before any rank
// goroutine starts, by one check shared by every flow, naming the rank and
// feature at fault.
func TestInputsValidation(t *testing.T) {
	cfg := makeConfig(8, 2, 2, 4, 8, 30, 2)
	eng, err := NewEngine(cfg, 15)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name    string
		corrupt func(in []*Inputs) []*Inputs
		want    string
	}{
		{"a rank short", func(in []*Inputs) []*Inputs { return in[:7] }, "7 inputs for 8 ranks"},
		{"nil rank", func(in []*Inputs) []*Inputs { in[2] = nil; return in }, "rank 2 "},
		{"missing feature indices", func(in []*Inputs) []*Inputs { in[4].Indices = in[4].Indices[:5]; return in }, "rank 4 "},
		{"missing feature offsets", func(in []*Inputs) []*Inputs { in[4].Offsets = in[4].Offsets[:5]; return in }, "rank 4 "},
		{"one offset per sample", func(in []*Inputs) []*Inputs { in[1].Offsets[6] = in[1].Offsets[6][:1]; return in }, "rank 1 feature 6"},
		{"first offset not 0", func(in []*Inputs) []*Inputs { in[5].Offsets[2][0] = 1; return in }, "rank 5 feature 2"},
		{"negative offset", func(in []*Inputs) []*Inputs { in[0].Offsets[3][1] = -1; return in }, "rank 0 feature 3"},
		// These two used to surface on the decoding rank (rank 0 owns
		// feature 0), respectively pool the wrong rows without failing.
		{"offset past the indices", func(in []*Inputs) []*Inputs {
			in[7].Offsets[0][1] = int32(len(in[7].Indices[0]) + 5)
			return in
		}, "rank 7 feature 0"},
		{"offset past the indices, silently", func(in []*Inputs) []*Inputs {
			in[3].Offsets[0][1] = int32(len(in[3].Indices[0]) + 5)
			return in
		}, "rank 3 feature 0"},
		// An index outside its table used to panic on the owner rank.
		{"index past the table", func(in []*Inputs) []*Inputs {
			in[6].Indices[1] = append(in[6].Indices[1], int32(cfg.Features[1].Cardinality))
			return in
		}, fmt.Sprintf("rank 6 feature 1: index %d at position", cfg.Features[1].Cardinality)},
		{"negative index", func(in []*Inputs) []*Inputs {
			in[2].Indices[5] = append(in[2].Indices[5], -1)
			return in
		}, "rank 2 feature 5: index -1 at position"},
	}
	flows := map[string]func(in []*Inputs){
		"flat":         func(in []*Inputs) { eng.BaselineForward(in) },
		"tower":        func(in []*Inputs) { eng.SPTTForward(in, Options{}) },
		"tower+module": func(in []*Inputs) { eng.SPTTForwardCompressed(in, flatTowers(cfg), Options{}) },
	}
	for _, tc := range cases {
		for name, run := range flows {
			t.Run(tc.name+"/"+name, func(t *testing.T) {
				in := tc.corrupt(makeInputs(cfg, 16))
				if err := cfg.checkInputs(in); err == nil || !strings.Contains(err.Error(), tc.want) {
					t.Fatalf("checkInputs = %v, want an error naming %q", err, tc.want)
				}
				defer func() {
					msg := fmt.Sprint(recover())
					if !strings.HasPrefix(msg, "sptt: ") || !strings.Contains(msg, tc.want) {
						t.Fatalf("flow raised %q, want the input error naming %q", msg, tc.want)
					}
				}()
				run(in)
			})
		}
	}
	if err := cfg.checkInputs(makeInputs(cfg, 16)); err != nil {
		t.Fatalf("valid inputs rejected: %v", err)
	}
}

// FuzzGlobalBags: step (a) leaves each owner, per feature it owns, every
// rank's bags of it concatenated in source-rank order with their offsets
// rebased into the concatenation, and charges each rank's message to an
// owner exactly the bytes of its int32 encoding, 4·Σ(B + len(indices))
// over the owner's features, whatever the bag sizes (empty bags, empty
// features, bags of up to 8 ids) and however the features are owned (an
// owner-less rank sends and receives 0 bytes). The tower flow is used, so
// GlobalTraffic holds step (a) alone.
func FuzzGlobalBags(f *testing.F) {
	f.Add([]byte{1, 0, 2, 3}, uint8(1), uint8(2), uint8(2))
	f.Add([]byte{}, uint8(0), uint8(0), uint8(0))
	f.Add([]byte{0, 0, 0, 0, 0, 0}, uint8(3), uint8(2), uint8(1))
	f.Add([]byte{3, 8, 0, 5, 1, 7, 2, 0, 4, 6, 8, 1}, uint8(3), uint8(4), uint8(5))
	f.Fuzz(func(t *testing.T, sizes []byte, g, nf, b uint8) {
		cfg := Config{G: int(g)%4 + 1, L: 1, B: int(b)%6 + 1, N: 1, Features: make([]FeatureSpec, int(nf)%5+1)}
		next := func() int {
			if len(sizes) == 0 {
				return 0
			}
			v := int(sizes[0])
			sizes = sizes[1:]
			return v
		}
		for f := range cfg.Features {
			cfg.Features[f] = FeatureSpec{Name: "f", Cardinality: 4 * 6 * 5 * 8, Hot: 1} // every index the generator can reach
			cfg.RankOf = append(cfg.RankOf, next()%cfg.G)
		}
		cfg.TowerOf = cfg.RankOf // L = 1: each rank is its own tower's host
		ins := make([]*Inputs, cfg.G)
		id := int32(0)
		for r := range ins {
			ins[r] = &Inputs{Indices: make([][]int32, cfg.F()), Offsets: make([][]int32, cfg.F())}
			for f := range cfg.Features {
				ins[r].Indices[f] = []int32{}
				for s := 0; s < cfg.B; s++ {
					ins[r].Offsets[f] = append(ins[r].Offsets[f], int32(len(ins[r].Indices[f])))
					for n := next() % 9; n > 0; n-- {
						ins[r].Indices[f] = append(ins[r].Indices[f], id)
						id++
					}
				}
			}
		}
		e, err := NewEngine(cfg, 1)
		if err != nil {
			t.Fatal(err)
		}
		_, st := e.SPTTForward(ins, Options{})
		for owner, ls := range st.lookups {
			if !slices.Equal(ls.features, cfg.OwnedFeatures(owner)) {
				t.Fatalf("owner %d looked up %v, owns %v", owner, ls.features, cfg.OwnedFeatures(owner))
			}
			for i, f := range ls.features {
				var idx, off []int32
				for _, in := range ins {
					for _, o := range in.Offsets[f] {
						off = append(off, int32(len(idx))+o)
					}
					idx = append(idx, in.Indices[f]...)
				}
				if !slices.Equal(ls.indices[i], idx) || !slices.Equal(ls.offsets[i], off) {
					t.Fatalf("owner %d feature %d: bags (%v, %v), want (%v, %v)", owner, f, ls.indices[i], ls.offsets[i], idx, off)
				}
			}
			for src, in := range ins {
				want := int64(0)
				for _, f := range ls.features {
					want += int64(4 * (cfg.B + len(in.Indices[f])))
				}
				if got := st.GlobalTraffic[src][owner]; got != want {
					t.Fatalf("rank %d → owner %d charged %d bytes, want %d", src, owner, got, want)
				}
			}
		}
	})
}

// twoTier prices intra-host and cross-host messages differently, as a pure
// function of its arguments.
type twoTier struct{ l int }

func (m twoTier) P2PDelay(src, dst, nbytes int) time.Duration {
	if src/m.l == dst/m.l {
		return time.Microsecond + time.Duration(nbytes)*time.Nanosecond
	}
	return 5*time.Microsecond + 4*time.Duration(nbytes)*time.Nanosecond
}

// TestEngineReusePerCallAccounting: an engine's communicators outlive a
// call, but what a call reports is that call's own traffic and collective
// time. Two forward+backward pairs on one engine must report exactly what
// two fresh engines report, traffic and exposed/hidden times alike — on the
// private zero-delay groups, where the times are zero, and on a simulated
// network, where they are modeled and nonzero.
func TestEngineReusePerCallAccounting(t *testing.T) {
	cfg := makeConfig(8, 2, 3, 4, 10, 40, 3)
	wide := cfg.F() * cfg.N
	type flowFn func(e *Engine, in []*Inputs, cm Comms, seed uint64) *SPTTState
	flows := []struct {
		name    string
		network bool // the flow accepts Comms
		run     flowFn
	}{
		{"flat", false, func(e *Engine, in []*Inputs, _ Comms, seed uint64) *SPTTState {
			_, st := e.BaselineForward(in)
			e.SPTTBackward(st, randomGrads(cfg, seed, 0))
			return st
		}},
		{"tower", true, func(e *Engine, in []*Inputs, cm Comms, seed uint64) *SPTTState {
			_, st := e.SPTTForward(in, Options{Comms: cm})
			e.SPTTBackward(st, randomGrads(cfg, seed, 0))
			return st
		}},
		{"tower+module", true, func(e *Engine, in []*Inputs, cm Comms, seed uint64) *SPTTState {
			_, st := e.SPTTForwardCompressed(in, flatTowers(cfg), Options{Comms: cm})
			e.SPTTBackward(st, randomGrads(cfg, seed, wide))
			return st
		}},
	}
	// Different batches, so a cumulative figure could not pass for a delta.
	batches := [][]*Inputs{makeInputs(cfg, 2), makeInputs(cfg, 3)}
	batches[1][0].Indices[0] = append(batches[1][0].Indices[0], 1, 2, 3)

	for _, fl := range flows {
		for _, network := range []bool{false, true} {
			if network && !fl.network {
				continue
			}
			t.Run(fmt.Sprintf("%s/network=%v", fl.name, network), func(t *testing.T) {
				// One world per scenario: the virtual clocks run on across
				// calls either way; only the communicators differ.
				comms := func() Comms {
					if !network {
						return Comms{}
					}
					net := comm.NewNetwork(twoTier{cfg.L}, cfg.G)
					tick := func(rank int) { net.Clock(rank).Advance(3 * time.Microsecond) }
					return Comms{Net: net, Overlap: tick, BwdOverlap: tick}
				}
				reused, _ := NewEngine(cfg, 9)
				cmReused, cmFresh := comms(), comms()
				for i, in := range batches {
					fresh, _ := NewEngine(cfg, 9)
					got := fl.run(reused, in, cmReused, uint64(20+i))
					want := fl.run(fresh, in, cmFresh, uint64(20+i))
					for _, m := range []struct {
						name      string
						got, want [][]int64
					}{
						{"GlobalTraffic", got.GlobalTraffic, want.GlobalTraffic},
						{"HostTraffic", got.HostTraffic, want.HostTraffic},
						{"PeerTraffic", got.PeerTraffic, want.PeerTraffic},
						{"BwdGlobalTraffic", got.BwdGlobalTraffic, want.BwdGlobalTraffic},
						{"BwdHostTraffic", got.BwdHostTraffic, want.BwdHostTraffic},
						{"BwdPeerTraffic", got.BwdPeerTraffic, want.BwdPeerTraffic},
					} {
						if !reflect.DeepEqual(m.got, m.want) {
							t.Fatalf("call %d: %s on a reused engine\n%v\nfresh engine\n%v", i, m.name, m.got, m.want)
						}
					}
					gotT := [4]time.Duration{got.ExposedComm, got.HiddenComm, got.BwdExposedComm, got.BwdHiddenComm}
					wantT := [4]time.Duration{want.ExposedComm, want.HiddenComm, want.BwdExposedComm, want.BwdHiddenComm}
					if gotT != wantT {
						t.Fatalf("call %d: fwd/bwd exposed/hidden on a reused engine %v, fresh engine %v", i, gotT, wantT)
					}
					if modeled := gotT[0] > 0 && gotT[1] > 0 && gotT[2] > 0 && gotT[3] > 0; modeled != network {
						t.Fatalf("call %d: network=%v but exposed/hidden %v", i, network, gotT)
					}
				}
			})
		}
	}
}

// TestFamiliesBuiltOncePerNetwork: the communicator families are the same
// objects from call to call, and are rebuilt exactly when they must be —
// after a canceled run, and when Comms.Net changes.
func TestFamiliesBuiltOncePerNetwork(t *testing.T) {
	cfg := makeConfig(4, 2, 2, 3, 6, 30, 2)
	eng, err := NewEngine(cfg, 5)
	if err != nil {
		t.Fatal(err)
	}
	inputs := makeInputs(cfg, 6)

	_, st := eng.SPTTForward(inputs, Options{})
	first := eng.fam
	if first == nil || first.net != nil {
		t.Fatalf("no network-less families cached after a call: %+v", first)
	}
	eng.SPTTBackward(st, randomGrads(cfg, 7, 0))
	eng.BaselineForward(inputs)
	if eng.fam != first {
		t.Fatal("families rebuilt between calls on the same network")
	}

	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("failing hook did not fail the call")
			}
		}()
		eng.SPTTForward(inputs, Options{Comms: Comms{Overlap: func(int) { panic("boom") }}})
	}()
	if eng.fam != nil {
		t.Fatal("canceled families left in the cache")
	}
	eng.SPTTForward(inputs, Options{})
	second := eng.fam
	if second == nil || second == first {
		t.Fatal("families not rebuilt after a canceled run")
	}

	net := comm.NewNetwork(twoTier{cfg.L}, cfg.G)
	_, st = eng.SPTTForward(inputs, Options{Comms: Comms{Net: net}})
	onNet := eng.fam
	if onNet == second || onNet.net != net {
		t.Fatal("families not rebuilt for a new network")
	}
	eng.SPTTBackward(st, randomGrads(cfg, 7, 0))
	if eng.fam != onNet {
		t.Fatal("families rebuilt between calls on the same network")
	}
}

// swapMiddle is the exchange's second layout pass before toPeerMajor fused
// them: it transposes the two middle axes of x viewed as (d0, d1, d2, n).
func swapMiddle(x *tensor.Tensor, d0, d1, d2, n int) *tensor.Tensor {
	out := tensor.New(d0, d2, d1, n)
	for a := 0; a < d0; a++ {
		for i := 0; i < d1; i++ {
			for s := 0; s < d2; s++ {
				src, dst := ((a*d1+i)*d2+s)*n, ((a*d2+s)*d1+i)*n
				copy(out.Data()[dst:dst+n], x.Data()[src:src+n])
			}
		}
	}
	return out
}

// TestPeerMajorMatchesMultiPassLayout holds the exchange's one-pass
// permutes to the passes they replaced, bit for bit, on uneven T, F_t, B
// and N, with the tower cut into uneven feature blocks as step (d) delivers
// it. Forward with a tower module: Concat, Transpose3D01, then swapMiddle,
// (F_t,T,B,N) -> (T,F_t,B,N) -> (T,B,F_t,N); without one, Concat then
// Transpose3D01. Backward: the inverse passes.
func TestPeerMajorMatchesMultiPassLayout(t *testing.T) {
	r := tensor.NewRNG(3)
	for _, d := range [][4]int{{1, 1, 1, 1}, {3, 2, 5, 7}, {2, 5, 3, 1}, {5, 3, 1, 4}, {4, 7, 6, 3}} {
		T, ft, B, N := d[0], d[1], d[2], d[3]
		name := fmt.Sprintf("T=%d F_t=%d B=%d N=%d", T, ft, B, N)
		tower := tensor.RandN(r, 1, ft, T, B*N)
		var blocks []*tensor.Tensor
		for lo := 0; lo < ft; {
			hi := min(ft, lo+1+r.Intn(3))
			blocks = append(blocks, tensor.FromSlice(tower.Data()[lo*T*B*N:hi*T*B*N], hi-lo, T, B*N))
			lo = hi
		}
		transposed := tensor.Transpose3D01(tensor.Concat(0, blocks...))

		want := swapMiddle(transposed.Reshape(T*ft, B, N), T, ft, B, N)
		if got := toPeerMajor(blocks, T, B, N); !slices.Equal(bitsOf(got), bitsOf(want)) {
			t.Fatalf("%s: forward permute differs from Concat∘Transpose3D01∘swapMiddle", name)
		}
		if got := toPeerMajor(blocks, T, 1, B*N); !slices.Equal(bitsOf(got), bitsOf(transposed)) {
			t.Fatalf("%s: module-less forward permute differs from Concat∘Transpose3D01", name)
		}

		grad := tensor.RandN(r, 1, T*B, ft, N)
		want = tensor.Transpose3D01(swapMiddle(grad, T, B, ft, N).Reshape(T, ft, B*N))
		if got := fromPeerMajor(grad, ft, T, B, N); !slices.Equal(bitsOf(got), bitsOf(want)) {
			t.Fatalf("%s: inverse permute differs from swapMiddle∘Transpose3D01", name)
		}
		if got := fromPeerMajor(grad, ft, T, 1, B*N); !slices.Equal(bitsOf(got), bitsOf(tensor.Transpose3D01(grad.Reshape(T, ft, B*N)))) {
			t.Fatalf("%s: module-less inverse permute differs from Transpose3D01", name)
		}
		if got := fromPeerMajor(toPeerMajor(blocks, T, B, N), ft, T, B, N); !slices.Equal(bitsOf(got), bitsOf(tower)) {
			t.Fatalf("%s: the inverse does not undo the forward permute", name)
		}
	}
}

func bitsOf(x *tensor.Tensor) []uint32 {
	out := make([]uint32, x.Len())
	for i, v := range x.Data() {
		out[i] = math.Float32bits(v)
	}
	return out
}

// TestSPTTStepAllocs pins the objects one compressed forward and its
// backward allocate at a G = 8 shape once the engine has run a step: 824,
// the same count at any GOMAXPROCS and under -race. Step (a)'s messages
// are records the engine keeps and the owners read in place, so a
// per-call payload or decode table would show here as 8 objects or more.
func TestSPTTStepAllocs(t *testing.T) {
	if tensor.ArenaCheck {
		t.Skip("under arenacheck every Reset drops the arena's memory, so every pass allocates it afresh")
	}
	cfg := makeConfig(8, 2, 3, 4, 10, 40, 3)
	e, err := NewEngine(cfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	ins, mods := makeInputs(cfg, 7), flatTowers(cfg)
	width := 0
	for tw := 0; tw < cfg.T(); tw++ {
		width += mods[tw*cfg.L].OutDim()
	}
	dOuts := randomGrads(cfg, 8, width)
	step := func() {
		_, st := e.SPTTForwardCompressed(ins, mods, Options{})
		e.SPTTBackward(st, dOuts)
	}
	step()
	if n := testing.AllocsPerRun(10, step); n > 824 {
		t.Errorf("a compressed forward and backward allocate %v objects, want ≤ 824", n)
	}
}
