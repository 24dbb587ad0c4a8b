package sptt

import (
	"fmt"
	"time"

	"dmt/internal/comm"
	"dmt/internal/embeddings"
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
	// Net, when non-nil, prices the dataflow's collectives: all communicator
	// families are built against this network, so message delays follow its
	// point-to-point cost model and the state's Exposed/Hidden times are
	// modeled virtual-clock quantities. Without it the families run on a
	// private zero-delay network and those times are zero. A rank panic
	// cancels the network: a remote Tier must share it. Outputs are bitwise
	// identical with or without it — delay changes timing, never values. The
	// Overlap hook may advance the rank's clock (Net.Clock(rank).Advance) to
	// model the compute that hides the exchange.
	Net *comm.Network
}

// Options carries the communication configuration of a tower flow.
type Options struct {
	// Comms bundles the wire scheme, overlap hook, and simulated network.
	Comms Comms
}

// flow is the three things a dataflow chooses (see the package comment).
type flow struct {
	// flat stops after step (b) and returns embeddings with one global
	// AlltoAll: Figure 4's baseline, no towers.
	flat bool
	// modules[r] is rank r's tower-module replica, applied between steps
	// (e) and (f); nil exchanges the raw tower block.
	modules []TowerModule
}

// rankLookupState caches, per looked-up feature, the global-batch bags
// assembled during step (a), in source-rank order; the backward pass turns
// output gradients into sparse table gradients with them.
type rankLookupState struct {
	features []int     // the rank's owned features, ascending
	indices  [][]int32 // per feature: flat indices for the global batch
	offsets  [][]int32 // per feature: offsets, length G*B
}

// SPTTState is what a forward call leaves for SPTTBackward — the flow it
// ran and the cached lookups — plus the call's per-phase traffic matrices
// (G×G, global rank indexed) for the volume assertions in tests. Every
// figure covers that one call only.
type SPTTState struct {
	flow
	lookups []*rankLookupState // per rank
	// comms is the forward pass's communication configuration; the backward
	// pass reuses it so both directions of the peer exchange share one wire
	// scheme and one set of virtual clocks.
	comms Comms

	// GlobalTraffic covers step (a) and, in the flat flow, the embedding
	// AlltoAll; HostTraffic step (d); PeerTraffic step (f).
	GlobalTraffic [][]int64
	HostTraffic   [][]int64
	PeerTraffic   [][]int64

	// The Bwd* matrices are filled in by SPTTBackward: the reverse peer
	// AlltoAll (BwdPeerTraffic), the reverse intra-host collective plus — in
	// compressed runs — the intra-tower gradient AllReduce (BwdHostTraffic),
	// and the flat flow's reverse AlltoAll (BwdGlobalTraffic, zero for tower
	// flows). They let the distributed trainer split gradient bytes by
	// fabric.
	BwdGlobalTraffic [][]int64
	BwdHostTraffic   [][]int64
	BwdPeerTraffic   [][]int64

	// Collective timing on the virtual clock, summed over all ranks and
	// group families: exposed is modeled transfer time ranks waited for in
	// receives, hidden is the in-flight window of non-blocking collectives
	// covered by modeled compute (the Overlap hook). The Bwd pair is filled
	// in by SPTTBackward.
	ExposedComm    time.Duration
	HiddenComm     time.Duration
	BwdExposedComm time.Duration
	BwdHiddenComm  time.Duration
}

// BaselineForward runs Figure 4's flat dataflow: steps (a), (b), then one
// global AlltoAll returning embeddings. outs[r] is rank r's (B, F, N)
// tensor in canonical feature order.
func (e *Engine) BaselineForward(inputs []*Inputs) ([]*tensor.Tensor, *SPTTState) {
	return e.forward(inputs, flow{flat: true}, Comms{})
}

// SPTTForward runs the pass-through transform (steps a–f, no tower module):
// outs[r] is rank r's (B, F, N) in canonical feature order — bit-identical
// to BaselineForward's output (Table 3's "SPTT only orchestrates dataflow").
func (e *Engine) SPTTForward(inputs []*Inputs, opt Options) ([]*tensor.Tensor, *SPTTState) {
	return e.forward(inputs, flow{}, opt.Comms)
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
	return e.forward(inputs, flow{modules: modules}, opt.Comms)
}

// forward runs one flow: the lookup half on every rank, then either the
// flat flow's global AlltoAll or the exchange half.
func (e *Engine) forward(inputs []*Inputs, fl flow, cm Comms) ([]*tensor.Tensor, *SPTTState) {
	cfg := e.Cfg
	if err := cfg.checkInputs(inputs); err != nil {
		panic(err)
	}
	if !fl.flat && len(cfg.TowerOf) != cfg.F() {
		panic("sptt: tower flows require Config.TowerOf")
	}
	outs := make([]*tensor.Tensor, cfg.G)
	st := &SPTTState{flow: fl, comms: cm, lookups: make([]*rankLookupState, cfg.G)}

	u := e.run(cm.Net, func(c, hostC, peerC *comm.Comm) {
		rank := c.Rank()
		ls, pooled, scratch := e.lookup(c, inputs[rank])
		st.lookups[rank] = ls
		if fl.flat {
			// To dst: my features' pooled rows for dst's local batch.
			out := tensor.New(cfg.B, cfg.F(), cfg.N)
			chunks := e.pack(pooled, e.rankOrder, cfg.G)
			tensor.Scratch.Put(scratch)
			for src, blk := range c.AlltoAllTensors(chunks) {
				e.scatter(out, blk, e.owned[src])
			}
			outs[rank] = out
			return
		}
		// Steps (c)+(d): to local rank j, through the peer-order map, the
		// peer-class-j slice of each of my lookups. Back comes the tower's
		// full feature set for my class, (F_t, T, B*N): one block per local
		// rank in host order.
		chunks := e.pack(pooled, e.peerOrder, cfg.L)
		tensor.Scratch.Put(scratch)
		tower := hostC.AlltoAllTensors(chunks)
		outs[rank] = e.exchange(peerC, rank, tower, fl, cm)
	})
	st.GlobalTraffic, st.HostTraffic, st.PeerTraffic = u.global, u.host, u.peer
	st.ExposedComm, st.HiddenComm = u.exposed, u.hidden
	return outs, st
}

// SPTTBackward reverses whichever forward call produced st: output
// gradients flow back through step (f)'s peer AlltoAll, the tower module
// (if any, with its gradients AllReduced across the tower's host — the
// intra-tower synchronization of §3.2), step (e)'s shuffle and step (d)'s
// intra-host collective — or, for the flat flow, through the one reverse
// global AlltoAll (§2.2) — ending in sparse table gradients at the ranks
// that looked the tables up.
//
// dOuts[r] has the shape of the forward's outs[r]: (B, F, N), or (B, Σ O_t)
// for compressed states. The returned map is keyed by feature.
func (e *Engine) SPTTBackward(st *SPTTState, dOuts []*tensor.Tensor) map[int]*nn.SparseGrad {
	cfg := e.Cfg
	if len(dOuts) != cfg.G {
		panic(fmt.Sprintf("sptt: %d gradients for %d ranks", len(dOuts), cfg.G))
	}
	grads := make([][]*nn.SparseGrad, cfg.G)

	u := e.run(st.comms.Net, func(c, hostC, peerC *comm.Comm) {
		rank := c.Rank()
		if st.flat {
			// To each owner: the gradient slice of its features for my batch.
			chunks := make([]*tensor.Tensor, cfg.G)
			for dst := range chunks {
				chunks[dst] = e.gather(dOuts[rank], e.owned[dst])
			}
			grads[rank] = e.poolGrads(st.lookups[rank], c.AlltoAllTensors(chunks), e.rankOrder)
			return
		}
		dTower := e.exchangeBackward(hostC, peerC, rank, dOuts[rank], st) // (F_t, T, B*N)

		// Reverse step (d): each table's owner gets its own feature rows.
		chunks, row := make([]*tensor.Tensor, cfg.L), 0
		for j := range chunks {
			nj := len(e.owned[rank-hostC.Rank()+j])
			chunks[j] = dTower.Rows(row, row+nj)
			row += nj
		}
		grads[rank] = e.poolGrads(st.lookups[rank], hostC.AlltoAllTensors(chunks), e.peerOrder)
	})
	st.BwdGlobalTraffic, st.BwdHostTraffic, st.BwdPeerTraffic = u.global, u.host, u.peer
	st.BwdExposedComm, st.BwdHiddenComm = u.exposed, u.hidden

	// Every feature comes back from its one owner.
	merged := make(map[int]*nn.SparseGrad, cfg.F())
	for rank, gs := range grads {
		for i, g := range gs {
			merged[st.lookups[rank].features[i]] = g
		}
	}
	return merged
}

// lookup runs steps (a)+(b) on one rank: exchange sparse inputs so the rank
// holds, for every feature it owns, the bags of the global batch in
// source-rank order, then pool them. It returns the bags (the backward
// pass's pooling input) and one pooled (G*B, N) tensor per owned feature.
// The pooled tensors live from pooling to packing, with no wait between,
// so they come from a scratch arena, which lookup also returns: the caller
// puts it back once it has packed them.
func (e *Engine) lookup(c *comm.Comm, in *Inputs) (*rankLookupState, []*tensor.Tensor, *tensor.Arena) {
	cfg := e.Cfg
	rank := c.Rank()
	// Step (a): to each owner, my inputs, whose bags of its features it
	// reads in place.
	for _, m := range e.bags[rank] {
		m.in = in
	}
	recvd := comm.AlltoAll(c, e.bags[rank], (*bagMsg).wireBytes)

	feats := e.owned[rank]
	st := &rankLookupState{features: feats}
	reqs := make([]embeddings.Req, len(feats))
	for i, f := range feats {
		n := 0
		for _, m := range recvd {
			n += len(m.in.Indices[f])
		}
		gIdx := make([]int32, 0, n)
		gOff := make([]int32, 0, cfg.G*cfg.B)
		for _, m := range recvd {
			base := int32(len(gIdx))
			for _, o := range m.in.Offsets[f] {
				gOff = append(gOff, base+o)
			}
			gIdx = append(gIdx, m.in.Indices[f]...)
		}
		st.indices = append(st.indices, gIdx)
		st.offsets = append(st.offsets, gOff)
		reqs[i] = embeddings.Req{Table: f, IDs: gIdx}
	}

	// Step (b). The tier Lookup is issued even with zero owned features:
	// remote stores count one round per client per phase (round symmetry),
	// and an owner-less rank still participates.
	rows := e.Tier.Client(rank).Lookup(reqs)
	scratch := tensor.Scratch.Get()
	pooled := make([]*tensor.Tensor, len(feats))
	for i := range feats {
		pooled[i] = poolRows(scratch, rows[i], st.offsets[i], cfg.N)
	}
	return st, pooled, scratch
}

// pack builds the send chunks of an embedding AlltoAll over nDst
// destinations through an index map: destination j gets, from each pooled
// (G*B, N) lookup, the local-batch blocks of source ranks order[j*K] …
// order[j*K+K-1] (K = G/nDst), as one (len(pooled), K, B*N) tensor. Through
// PeerOrder to the L ranks of a host this is steps (c)+(d) — the peer
// permute is the map, never a copy (§3.1.3's virtual process group);
// through the identity to all G ranks it is the flat flow's return.
func (e *Engine) pack(pooled []*tensor.Tensor, order []int, nDst int) []*tensor.Tensor {
	bn := e.Cfg.B * e.Cfg.N
	k := len(order) / nDst
	chunks := make([]*tensor.Tensor, nDst)
	for j := range chunks {
		blk := tensor.New(len(pooled), k, bn)
		for i, p := range pooled {
			for kk := 0; kk < k; kk++ {
				src := order[j*k+kk]
				copy(blk.Data()[(i*k+kk)*bn:(i*k+kk+1)*bn], p.Data()[src*bn:(src+1)*bn])
			}
		}
		chunks[j] = blk
	}
	return chunks
}

// poolGrads reverses pack and step (b) on one rank: got[j] is what
// destination j sent back — per looked-up feature, the gradient blocks of
// the source ranks pack mapped to j — and each feature's reassembled
// rank-ordered (G*B, N) gradient becomes a sparse table gradient over the
// bags cached at lookup time.
func (e *Engine) poolGrads(ls *rankLookupState, got []*tensor.Tensor, order []int) []*nn.SparseGrad {
	cfg := e.Cfg
	bn := cfg.B * cfg.N
	k := len(order) / len(got)
	out := make([]*nn.SparseGrad, len(ls.features))
	// One reassembly buffer serves every feature: the blocks of got cover
	// all G source ranks, so each feature overwrites it completely. It
	// lives for this call alone, which waits on nothing: a scratch arena's.
	scratch := tensor.Scratch.Get()
	defer tensor.Scratch.Put(scratch)
	dPooled := scratch.New(cfg.G*cfg.B, cfg.N)
	for i, f := range ls.features {
		for j, g := range got {
			for kk := 0; kk < k; kk++ {
				src := order[j*k+kk]
				copy(dPooled.Data()[src*bn:(src+1)*bn], g.Data()[(i*k+kk)*bn:(i*k+kk+1)*bn])
			}
		}
		out[i] = e.Tables[f].PoolBackward(ls.indices[i], ls.offsets[i], dPooled)
	}
	return out
}

// scatter copies a feature-major block — (len(feats), B, N), feats[i] at
// index i — into the canonical sample-major (B, F, N) tensor.
func (e *Engine) scatter(out, blk *tensor.Tensor, feats []int) {
	b, nf, n := e.Cfg.B, e.Cfg.F(), e.Cfg.N
	for i, f := range feats {
		for s := 0; s < b; s++ {
			copy(out.Data()[(s*nf+f)*n:(s*nf+f+1)*n], blk.Data()[(i*b+s)*n:(i*b+s+1)*n])
		}
	}
}

// gather is scatter's reverse: it cuts the listed features out of a
// canonical (B, F, N) gradient as a feature-major (len(feats), B, N) block.
func (e *Engine) gather(x *tensor.Tensor, feats []int) *tensor.Tensor {
	b, nf, n := e.Cfg.B, e.Cfg.F(), e.Cfg.N
	if s := x.Shape(); len(s) != 3 || s[0] != b || s[1] != nf || s[2] != n {
		panic(fmt.Sprintf("sptt: gradient of shape %v, want (%d, %d, %d)", s, b, nf, n))
	}
	blk := tensor.New(len(feats), b, n)
	for i, f := range feats {
		for s := 0; s < b; s++ {
			copy(blk.Data()[(i*b+s)*n:(i*b+s+1)*n], x.Data()[(s*nf+f)*n:(s*nf+f+1)*n])
		}
	}
	return blk
}

// toPeerMajor is step (e) in one copy pass. The tower, (F_t, T, B, n), is
// given as its feature blocks: their concatenation along the leading axis,
// as step (d) delivers them. It returns (T*B, F_t, n): peer t's block is rows
// t*B to t*B+B-1, and sample s of it holds every feature's n values. With
// B = 1 and n = B·N this is the (features, peers) -> (peers, features)
// transpose alone; with the local batch as B it also turns each peer block
// sample-major, the layout a tower module reads.
func toPeerMajor(blocks []*tensor.Tensor, T, B, n int) *tensor.Tensor {
	ft := 0
	for _, blk := range blocks {
		ft += blk.Dim(0)
	}
	out := tensor.New(T*B, ft, n)
	dst := out.Data()
	a := 0
	for _, blk := range blocks {
		src := blk.Data()
		for i := 0; i < blk.Dim(0); i++ {
			for t := 0; t < T; t++ {
				for s := 0; s < B; s++ {
					copy(dst[((t*B+s)*ft+a)*n:][:n], src[((i*T+t)*B+s)*n:][:n])
				}
			}
			a++
		}
	}
	return out
}

// fromPeerMajor is toPeerMajor's inverse, (T*B, F_t, n) -> (F_t, T, B*n),
// in one copy pass.
func fromPeerMajor(x *tensor.Tensor, ft, T, B, n int) *tensor.Tensor {
	out := tensor.New(ft, T, B*n)
	src, dst := x.Data(), out.Data()
	for a := 0; a < ft; a++ {
		for t := 0; t < T; t++ {
			for s := 0; s < B; s++ {
				copy(dst[((a*T+t)*B+s)*n:][:n], src[((t*B+s)*ft+a)*n:][:n])
			}
		}
	}
	return out
}

// peerWire is one rank's step (f) wire: its payload to each peer, which
// the rank encodes into on every call and keeps, and the one-payload
// batches the peer AlltoAll posts and receives. A call re-encodes only
// after the previous call's run has joined, by which time every receiver
// has decoded what it was sent.
type peerWire struct {
	enc        []quant.Encoded // enc[t]: the payload to peer t
	parts, got [][]*quant.Encoded
}

func newPeerWire(peers int) peerWire {
	w := peerWire{
		enc:   make([]quant.Encoded, peers),
		parts: make([][]*quant.Encoded, peers),
		got:   make([][]*quant.Encoded, peers),
	}
	for t := range w.parts {
		w.parts[t] = []*quant.Encoded{&w.enc[t]}
	}
	return w
}

// stepF is step (f) and its reverse on one rank: encode chunks[t] into the
// rank's payload to peer t, post the peer AlltoAll — the dataflow's
// cross-host hop, quantized under the topology-aware policy — with one
// payload per peer, run the overlap hook while the payloads are in flight,
// then wait. got[t][0] is peer t's payload to this rank, which the caller
// decodes into its destination.
func (e *Engine) stepF(peerC *comm.Comm, rank int, s quant.Scheme, chunks []*tensor.Tensor, hook func(rank int)) (got [][]*quant.Encoded) {
	w := &e.wire[rank]
	for t, c := range chunks {
		quant.EncodeTo(&w.enc[t], s, c)
	}
	pending := peerC.IAlltoAllBatchEnc(w.parts, w.got)
	if hook != nil {
		hook(rank)
	}
	return pending.Wait()
}

// exchange is the forward exchange half on one rank: step (e), the tower
// module if the flow has one, and step (f). tower is (F_t, T, B*N), as
// feature blocks in order.
func (e *Engine) exchange(peerC *comm.Comm, rank int, tower []*tensor.Tensor, fl flow, cm Comms) *tensor.Tensor {
	cfg := e.Cfg
	T, L, B, N := cfg.T(), cfg.L, cfg.B, cfg.N
	var x *tensor.Tensor
	if fl.modules == nil {
		// Step (e): local data shuffle — (features, peers) -> (peers,
		// features) transpose, payload (B, N) rides along.
		x = toPeerMajor(tower, T, 1, B*N)
		x = x.Reshape(T*x.Dim(1), B, N)
	} else {
		// Step (e) with each peer block sample-major in the same pass,
		// (T*B, F_t, N), then the module compresses; the wire scheme stacks
		// on top of the module's dimensional compression.
		mod := fl.modules[rank]
		x = mod.Forward(toPeerMajor(tower, T, B, N))
		if x.Dim(0) != T*B || x.Dim(1) != mod.OutDim() {
			panic(fmt.Sprintf("sptt: tower module returned %v, want (%d, %d)", x.Shape(), T*B, mod.OutDim()))
		}
	}
	// Step (f): peer t gets the t-th of x's T equal row blocks and returns
	// its tower's block for my local batch.
	chunks := make([]*tensor.Tensor, T)
	for t := range chunks {
		chunks[t] = x.Rows(t*x.Dim(0)/T, (t+1)*x.Dim(0)/T)
	}
	got := e.stepF(peerC, rank, cm.CrossHost, chunks, cm.Overlap)
	if fl.modules != nil {
		// (B, Σ O_t) in tower order: each tower's block decodes into its
		// column window.
		sum := 0
		for t := 0; t < T; t++ {
			sum += fl.modules[t*L].OutDim()
		}
		out, col := tensor.New(B, sum), 0
		for t, p := range got {
			p[0].DecodeIntoCols(out, col)
			col += fl.modules[t*L].OutDim()
		}
		return out
	}
	out := tensor.New(B, cfg.F(), N)
	scratch := tensor.Scratch.Get()
	for t, p := range got {
		blk := scratch.New(len(e.tower[t]), B, N)
		p[0].DecodeInto(blk)
		e.scatter(out, blk, e.tower[t])
	}
	tensor.Scratch.Put(scratch)
	return out
}

// exchangeBackward reverses the exchange half on one rank and returns the
// gradient of the tower block, (F_t, T, B*N).
func (e *Engine) exchangeBackward(hostC, peerC *comm.Comm, rank int, dOut *tensor.Tensor, st *SPTTState) *tensor.Tensor {
	cfg := e.Cfg
	T, L, B, N := cfg.T(), cfg.L, cfg.B, cfg.N
	ft := len(e.tower[rank/L])
	// Reverse step (f): return gradient slices to the tower that produced
	// them; receive my tower's gradients for every peer batch.
	chunks := make([]*tensor.Tensor, T)
	if st.modules == nil {
		for t := range chunks {
			chunks[t] = e.gather(dOut, e.tower[t])
		}
	} else {
		widths := make([]int, T)
		for t := range widths {
			widths[t] = st.modules[t*L].OutDim()
		}
		chunks = tensor.SplitCols(dOut, widths)
	}
	got := e.stepF(peerC, rank, st.comms.CrossHost, chunks, st.comms.BwdOverlap)
	// The received blocks decode into their row blocks of d and are
	// re-laid, through the tower module if there is one, into the
	// feature-major result with no wait between: a scratch arena's pass.
	scratch := tensor.Scratch.Get()
	var d *tensor.Tensor
	if st.modules == nil {
		d = scratch.New(T*ft, B, N)
	} else {
		d = scratch.New(T*B, st.modules[rank].OutDim())
	}
	for t, p := range got {
		p[0].DecodeInto(scratch.Rows(d, t*d.Dim(0)/T, (t+1)*d.Dim(0)/T))
	}
	if st.modules == nil {
		// Reverse step (e): (peers, features) -> (features, peers).
		out := fromPeerMajor(d, ft, T, 1, B*N)
		tensor.Scratch.Put(scratch)
		return out
	}
	// Tower module backward, (T*B, O_t) -> (T*B, F_t, N), back to
	// feature-major and reverse step (e) in one pass, then the intra-tower
	// gradient reduction. The local gradient is cloned before the reduce:
	// collectives share payloads by reference, and prm.Grad is overwritten
	// with the reduced value while peers may still be reading it.
	mod := st.modules[rank]
	out := fromPeerMajor(mod.Backward(d), ft, T, B, N)
	tensor.Scratch.Put(scratch)
	for _, prm := range mod.Params() {
		prm.Grad.CopyFrom(hostC.AllReduceSum(prm.Grad.Clone()))
	}
	return out
}
