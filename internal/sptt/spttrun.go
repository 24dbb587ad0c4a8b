package sptt

import (
	"fmt"
	"time"

	"dmt/internal/comm"
	"dmt/internal/nn"
	"dmt/internal/quant"
	"dmt/internal/tensor"
)

// TowerModule is the hook SPTT offers tower modules (§3.2): a dense module
// replicated on every rank of its tower's host, applied between steps (e)
// and (f) to compress the tower's embeddings before cross-host exchange.
// Replicas are data-parallel within the tower; SPTT AllReduces their
// gradients over the intra-host group — the tower-local synchronization
// boundary the paper highlights.
type TowerModule interface {
	// Forward maps (S, F_t, N) to (S, O_t).
	Forward(x *tensor.Tensor) *tensor.Tensor
	// Backward maps dY (S, O_t) back to dX (S, F_t, N), accumulating
	// parameter gradients.
	Backward(dy *tensor.Tensor) *tensor.Tensor
	// OutDim returns O_t.
	OutDim() int
	// Params exposes the replica's parameters for intra-tower reduction.
	Params() []*nn.Param
}

// groupSet bundles the three communicator families SPTT needs.
type groupSet struct {
	g, l, t int
	global  []*comm.Comm
	host    [][]*comm.Comm // [host][local index]
	peer    [][]*comm.Comm // [class][host index]
}

// newGroupSet builds the three families over an optional simulated network:
// with a non-nil net, every sub-group is created with its ranks' GLOBAL
// identities (host h owns ranks h*l..h*l+l-1; peer class m owns ranks
// {t*l+m}), so the latency model prices each hop by the actual host
// placement and all families share each rank's one virtual clock.
func newGroupSet(g, l int, net *comm.Network) *groupSet {
	t := g / l
	gs := &groupSet{g: g, l: l, t: t, global: comm.NewGroupNet(g, net, nil)}
	for h := 0; h < t; h++ {
		granks := make([]int, l)
		for j := range granks {
			granks[j] = h*l + j
		}
		gs.host = append(gs.host, comm.NewGroupNet(l, net, granks))
	}
	for m := 0; m < l; m++ {
		granks := make([]int, t)
		for th := range granks {
			granks[th] = th*l + m
		}
		gs.peer = append(gs.peer, comm.NewGroupNet(t, net, granks))
	}
	return gs
}

// forRank returns the three communicators of a global rank.
func (gs *groupSet) forRank(rank int) (global, host, peer *comm.Comm) {
	return gs.global[rank], gs.host[rank/gs.l][rank%gs.l], gs.peer[rank%gs.l][rank/gs.l]
}

// run executes fn once per rank on the global group with the host and peer
// families linked for cancellation: a panicking rank cancels all three
// group families, so no peer deadlocks on a sub-group receive.
func (gs *groupSet) run(fn func(c *comm.Comm)) {
	linked := make([][]*comm.Comm, 0, len(gs.host)+len(gs.peer))
	linked = append(linked, gs.host...)
	linked = append(linked, gs.peer...)
	comm.RunLinked(gs.global, linked, fn)
}

// times sums the exposed/hidden collective timing over every rank of every
// group family. Valid after the dataflow's rank goroutines have joined.
func (gs *groupSet) times() (exposed, hidden time.Duration) {
	e, h := comm.GroupTimes(gs.global)
	exposed, hidden = e, h
	for _, grp := range gs.host {
		e, h = comm.GroupTimes(grp)
		exposed += e
		hidden += h
	}
	for _, grp := range gs.peer {
		e, h = comm.GroupTimes(grp)
		exposed += e
		hidden += h
	}
	return exposed, hidden
}

// globalTraffic folds a sub-group's traffic matrix into a G×G global one.
func (gs *groupSet) fold() (globalM, hostM, peerM [][]int64) {
	mk := func() [][]int64 {
		m := make([][]int64, gs.g)
		for i := range m {
			m[i] = make([]int64, gs.g)
		}
		return m
	}
	globalM, hostM, peerM = mk(), mk(), mk()
	gm := comm.TrafficMatrix(gs.global)
	for s := range gm {
		copy(globalM[s], gm[s])
	}
	for h, grp := range gs.host {
		m := comm.TrafficMatrix(grp)
		for sj := range m {
			for dj, b := range m[sj] {
				hostM[h*gs.l+sj][h*gs.l+dj] += b
			}
		}
	}
	for cls, grp := range gs.peer {
		m := comm.TrafficMatrix(grp)
		for st := range m {
			for dt, b := range m[st] {
				peerM[st*gs.l+cls][dt*gs.l+cls] += b
			}
		}
	}
	return globalM, hostM, peerM
}

// SPTTState carries the cached lookups for backward plus per-phase traffic
// matrices (G×G, global rank indexed) for the volume assertions in tests
// and EXPERIMENTS.md.
type SPTTState struct {
	lookups []*rankLookupState
	modules []TowerModule // per rank; nil for the pass-through transform
	// comms is the forward pass's communication configuration; the backward
	// pass reuses it so both directions of the peer exchange share one wire
	// scheme and one set of virtual clocks.
	comms Comms

	// GlobalTraffic covers step (a); HostTraffic step (d); PeerTraffic
	// step (f). All matrices are G×G, global-rank indexed.
	GlobalTraffic [][]int64
	HostTraffic   [][]int64
	PeerTraffic   [][]int64

	// The Bwd* matrices are filled in by SPTTBackward: the reverse peer
	// AlltoAll (BwdPeerTraffic), the reverse intra-host AlltoAll plus — in
	// compressed runs — the intra-tower gradient AllReduce (BwdHostTraffic),
	// and any global-group traffic (BwdGlobalTraffic, zero today). They let
	// the distributed trainer split gradient bytes by fabric.
	BwdGlobalTraffic [][]int64
	BwdHostTraffic   [][]int64
	BwdPeerTraffic   [][]int64

	// Collective timing, summed over all ranks and group families: exposed
	// is time ranks spent blocked in receives, hidden is the in-flight
	// window of non-blocking collectives covered by compute (the Overlap
	// hook). The Bwd pair is filled in by SPTTBackward.
	ExposedComm    time.Duration
	HiddenComm     time.Duration
	BwdExposedComm time.Duration
	BwdHiddenComm  time.Duration
}

// Comms groups the transform's communication-infrastructure hooks, which
// accreted one Options field at a time across the compression, overlap, and
// latency-model work: the cross-host wire scheme, the compute-overlap hook,
// and the simulated network. None of them changes outputs — each moves
// bytes, schedules, or virtual time, never values.
type Comms struct {
	// CrossHost quantizes the cross-host hops of the dataflow — the step (f)
	// peer AlltoAll and its backward counterpart — while intra-host traffic
	// (step (d) and the tower-module gradient reduction, NVLink in the real
	// system) stays fp32: the topology-aware compression policy. quant.None
	// keeps the dataflow bitwise identical to the uncompressed transform.
	CrossHost quant.Scheme
	// Overlap, when non-nil, is invoked once per rank between posting the
	// step (f) peer AlltoAll — the cross-host hop — and waiting on its
	// results, so rank-local dense compute (the distributed trainer's
	// bottom-MLP forward) hides the exchange. The hook runs on the rank's
	// dataflow goroutine; it must touch only rank-private state and must
	// not perform collectives on the dataflow's groups. Purely a
	// scheduling change: outputs are bitwise identical with or without it.
	Overlap func(rank int)
	// BwdOverlap is the backward-side counterpart: when non-nil it is
	// invoked once per rank between posting the REVERSE step (f) peer
	// AlltoAll in SPTTBackward and waiting on its results, so rank-local
	// backward compute (the distributed trainer's bottom-MLP backward and
	// its gradient-bucket launches) hides the return transfer. Same
	// contract as Overlap: runs on the rank's dataflow goroutine, must
	// touch only rank-private state plus groups disjoint from the
	// dataflow's, and is purely a scheduling change — outputs are bitwise
	// identical with or without it. Comms (with this hook) is captured in
	// SPTTState at forward time, so the hook set for a step's forward is
	// the one its backward invokes.
	BwdOverlap func(rank int)
	// Net, when non-nil, runs the dataflow's collectives in simulated-
	// latency mode: all communicator families are built against this
	// network, so message delays follow its point-to-point cost model and
	// the state's Exposed/Hidden times are modeled virtual-clock quantities
	// (deterministic) rather than goroutine-stall wall time. Outputs are
	// bitwise identical with or without it — delay changes timing, never
	// values. The Overlap hook may advance the rank's clock
	// (Net.Clock(rank).Advance) to model the compute that hides the
	// exchange.
	Net *comm.Network
}

// Options tweaks the transform's specializations (§3.1.3).
type Options struct {
	// SkipPermute uses a virtual process group instead of physically
	// reordering step (c): chunks for step (d) are gathered through the
	// peer-order index map directly. Semantically identical; the tests
	// assert it.
	SkipPermute bool
	// SwapLookupPermute swaps steps (b) and (c): the peer permute is
	// applied to the index payloads before the lookup, so the shuffle
	// touches the smaller object when the sparse inputs are lighter than
	// the embeddings. Semantically identical; the tests assert it.
	SwapLookupPermute bool
	// Comms bundles the wire scheme, overlap hook, and simulated network.
	Comms Comms
}

// SPTTForward runs the pass-through transform (steps a–f, no tower module):
// outs[r] is rank r's (B, F, N) in canonical feature order — bit-identical
// to BaselineForward's output (Table 3's "SPTT only orchestrates dataflow").
func (e *Engine) SPTTForward(inputs []*Inputs, opt Options) ([]*tensor.Tensor, *SPTTState) {
	outs, st, _ := e.spttRun(inputs, nil, opt)
	return outs, st
}

// SPTTForwardCompressed runs the transform with tower modules: modules[r]
// is rank r's replica of its tower's module (all ranks of a host share the
// tower; replicas must have identical parameters). outs[r] is
// (B, Σ_t O_t): the compressed tower outputs in tower order — the input to
// hierarchical global interaction (§3.2, Figure 8).
func (e *Engine) SPTTForwardCompressed(inputs []*Inputs, modules []TowerModule, opt Options) ([]*tensor.Tensor, *SPTTState) {
	if len(modules) != e.Cfg.G {
		panic(fmt.Sprintf("sptt: %d tower-module replicas for %d ranks", len(modules), e.Cfg.G))
	}
	outs, st, _ := e.spttRun(inputs, modules, opt)
	return outs, st
}

// spttRun is the shared implementation. When modules is nil it produces the
// pass-through (B, F, N) output; otherwise the compressed (B, ΣO) output.
func (e *Engine) spttRun(inputs []*Inputs, modules []TowerModule, opt Options) ([]*tensor.Tensor, *SPTTState, *groupSet) {
	cfg := e.Cfg
	if len(inputs) != cfg.G {
		panic(fmt.Sprintf("sptt: %d inputs for %d ranks", len(inputs), cfg.G))
	}
	gs := newGroupSet(cfg.G, cfg.L, opt.Comms.Net)
	perm := PeerOrder(cfg.G, cfg.L)
	T, L, B, N := cfg.T(), cfg.L, cfg.B, cfg.N
	outs := make([]*tensor.Tensor, cfg.G)
	st := &SPTTState{
		lookups: make([]*rankLookupState, cfg.G),
		modules: modules,
		comms:   opt.Comms,
	}

	gs.run(func(c *comm.Comm) {
		rank := c.Rank()
		_, hostC, peerC := gs.forRank(rank)
		h := rank / L

		// Steps (a)+(b), optionally with (b) and (c) swapped: either look up
		// in rank order and permute the embeddings (the Figure 7 flow), or
		// permute the index payloads and look up directly in peer order.
		var lookupOrder []int
		if opt.SwapLookupPermute {
			lookupOrder = perm
		}
		ls, pooled := e.distributeAndLookup(c, inputs[rank], lookupOrder)
		st.lookups[rank] = ls
		nOwned := len(ls.features)

		// Step (c): peer permute — reorder each owned feature's source-rank
		// blocks into peer order. With SkipPermute the reorder is fused into
		// step (d)'s gather through the index map (virtual process group);
		// with SwapLookupPermute the blocks already sit in peer order.
		blockAt := func(i, pos int) []float32 { // pos in peer order
			src := perm[pos]
			return pooled[i].Data()[src*B*N : (src+1)*B*N]
		}
		switch {
		case opt.SwapLookupPermute:
			blockAt = func(i, pos int) []float32 {
				return pooled[i].Data()[pos*B*N : (pos+1)*B*N]
			}
		case !opt.SkipPermute:
			permuted := make([]*tensor.Tensor, nOwned)
			for i := range permuted {
				p := tensor.New(cfg.G, B, N)
				for pos := 0; pos < cfg.G; pos++ {
					copy(p.Data()[pos*B*N:(pos+1)*B*N], blockAt(i, pos))
				}
				permuted[i] = p
			}
			blockAt = func(i, pos int) []float32 {
				return permuted[i].Data()[pos*B*N : (pos+1)*B*N]
			}
		}

		// Step (d): intra-host AlltoAll. To local rank j: for each of my
		// features, the peer-class-j slice (positions [jT, (j+1)T)).
		chunks := make([]*tensor.Tensor, L)
		for j := 0; j < L; j++ {
			blk := tensor.New(nOwned, T, B, N)
			for i := 0; i < nOwned; i++ {
				for k := 0; k < T; k++ {
					copy(blk.Data()[((i*T+k)*B)*N:((i*T+k)*B+B)*N], blockAt(i, j*T+k))
				}
			}
			chunks[j] = blk
		}
		got := hostC.AlltoAllTensors(chunks)

		// Assemble the tower's full feature set for my peer class:
		// (F_t, T, B, N), features in host order.
		towerFeats := cfg.TowerFeatures(h)
		ft := len(towerFeats)
		towerData := tensor.New(ft, T, B, N)
		row := 0
		for j := 0; j < L; j++ {
			blk := got[j]
			nj := blk.Dim(0)
			copy(towerData.Data()[row*T*B*N:(row+nj)*T*B*N], blk.Data())
			row += nj
		}

		// Step (e): local data shuffle — (features, peers) -> (peers,
		// features) transpose, payload (B, N) rides along.
		shuffled := tensor.Transpose3D01(towerData.Reshape(ft, T, B*N)) // (T, F_t, B*N)

		if modules == nil {
			// Step (f): peer AlltoAll of the raw tower block — the cross-host
			// hop, quantized under the topology-aware policy. Sends are
			// posted first so the Overlap hook's compute runs while peers'
			// payloads are in flight.
			pchunks := make([]*tensor.Tensor, T)
			for t := 0; t < T; t++ {
				blk := tensor.New(ft, B, N)
				copy(blk.Data(), shuffled.Data()[t*ft*B*N:(t+1)*ft*B*N])
				pchunks[t] = blk
			}
			pending := peerC.IAlltoAllTensorsQ(opt.Comms.CrossHost, pchunks)
			if opt.Comms.Overlap != nil {
				opt.Comms.Overlap(rank)
			}
			pg := pending.Wait()

			out := tensor.New(B, cfg.F(), N)
			for t := 0; t < T; t++ {
				feats := cfg.TowerFeatures(t)
				for i, f := range feats {
					blk := pg[t].Data()[i*B*N : (i+1)*B*N]
					for s := 0; s < B; s++ {
						copy(out.Data()[(s*cfg.F()+f)*N:(s*cfg.F()+f+1)*N], blk[s*N:(s+1)*N])
					}
				}
			}
			outs[rank] = out
			return
		}

		// Tower module path: per peer block, go sample-major (B, F_t, N),
		// stack to (T*B, F_t, N), compress, then exchange compressed slices.
		tmIn := tensor.New(T*B, ft, N)
		for t := 0; t < T; t++ {
			for i := 0; i < ft; i++ {
				for s := 0; s < B; s++ {
					src := shuffled.Data()[((t*ft+i)*B+s)*N : ((t*ft+i)*B+s+1)*N]
					dst := tmIn.Data()[(((t*B+s)*ft)+i)*N : (((t*B+s)*ft)+i+1)*N]
					copy(dst, src)
				}
			}
		}
		compressed := modules[rank].Forward(tmIn) // (T*B, O_t)
		oT := modules[rank].OutDim()
		if compressed.Dim(0) != T*B || compressed.Dim(1) != oT {
			panic(fmt.Sprintf("sptt: tower module returned %v, want (%d, %d)", compressed.Shape(), T*B, oT))
		}

		// Step (f) on compressed payloads: slice per peer block. The wire
		// scheme stacks on top of the tower module's dimensional compression.
		// Posting before the Overlap hook lets the caller hide the
		// cross-host exchange behind rank-local dense compute.
		pchunks := make([]*tensor.Tensor, T)
		for t := 0; t < T; t++ {
			blk := tensor.New(B, oT)
			copy(blk.Data(), compressed.Data()[t*B*oT:(t+1)*B*oT])
			pchunks[t] = blk
		}
		pending := peerC.IAlltoAllTensorsQ(opt.Comms.CrossHost, pchunks)
		if opt.Comms.Overlap != nil {
			opt.Comms.Overlap(rank)
		}
		pg := pending.Wait()

		// Output: concat tower outputs in tower order: (B, Σ O_t).
		parts := make([]*tensor.Tensor, T)
		for t := 0; t < T; t++ {
			parts[t] = pg[t]
		}
		outs[rank] = tensor.Concat(1, parts...)
	})

	st.GlobalTraffic, st.HostTraffic, st.PeerTraffic = gs.fold()
	st.ExposedComm, st.HiddenComm = gs.times()
	return outs, st, gs
}
