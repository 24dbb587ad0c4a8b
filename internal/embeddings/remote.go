package embeddings

import (
	"fmt"
	"runtime"
	"sync/atomic"
	"time"

	"dmt/internal/comm"
	"dmt/internal/nn"
	"dmt/internal/tensor"
)

// RemoteConfig sizes a disaggregated embedding tier.
type RemoteConfig struct {
	// Clients is the number of compute ranks (global ranks 0..Clients-1).
	Clients int
	// Servers is the number of dedicated embedding-server ranks; server s is
	// global rank Clients+s on the network and owns every table f with
	// f % Servers == s.
	Servers int
	// Tables are the canonical embedding tables, indexed by feature. The
	// tier takes them over: only the server half of a round touches them.
	Tables []*nn.EmbeddingBag
	// SparseLR drives the per-server SparseAdam.
	SparseLR float32
	// CacheRows is each client's hot-ID cache capacity (0 disables).
	CacheRows int
	// Net is the clients' network, spanning Clients+Servers global ranks:
	// it prices the request/response rounds, and it is the tier's failure
	// domain. Required.
	Net *comm.Network
}

// RemoteTier disaggregates the embedding tables onto dedicated server ranks.
// Each (client, server) pair owns a private 2-rank comm group; a client
// round is one request collective plus one (lookup) or two (update) row
// collectives on that pair. The request is the client's own Reqs or Upds
// for that server, which the server reads in place, charged the bytes of
// their int32 encoding, [kind, nTables, (table, n, ids...)*]; an update's
// gradient message carries the Upds' own GradRows, charged 4 bytes an
// element, and the response is one slab of rows.
//
// A server is a turn, not a goroutine. Server s's turn passes through the
// clients in ascending rank order, round-robin; a client that needs s waits
// for the turn and, while it holds it, runs both sides of its round on the
// pair group: each collective is posted by the client, completed by the
// server side (group rank 1, on s's virtual clock), then waited by the
// client. Every rank therefore performs its collectives in one fixed
// program order, whatever the goroutine schedule, so the virtual timeline
// is deterministic, and a round has finished on the server's clock by the
// time it returns. Round symmetry (see Store) guarantees the turn never
// starves: every client issues exactly one round to every server per phase,
// empty or not.
//
// Clients call the tier inside a comm.Run on Net. A round that panics (an
// out-of-range row id, say) is the asking client's panic, which that Run
// reports with the rank attached. Any rank panic there cancels Net, and
// with it the tier: a client waiting for a turn that will never pass on
// panics instead of waiting forever.
type RemoteTier struct {
	cfg RemoteConfig
	dim int
	// pairs[c][s] is client c's link to server s.
	pairs   [][]pair
	clients []Store
	opts    []*nn.SparseAdam // per server

	lookups, updates                   int64
	lookupCrossBytes, updateCrossBytes int64
	lookupExposedNS, updateExposedNS   int64
}

// pair is one (client, server) link: the two sides of its 2-rank group and
// the server's turn token while the turn is the client's.
type pair struct {
	client, server *comm.Comm
	turn           chan struct{} // capacity 1
}

// NewRemote builds the tier; server s's turn starts at client 0.
func NewRemote(cfg RemoteConfig) *RemoteTier {
	if cfg.Clients <= 0 || cfg.Servers <= 0 {
		panic(fmt.Sprintf("embeddings: remote tier with %d clients, %d servers", cfg.Clients, cfg.Servers))
	}
	if len(cfg.Tables) == 0 || cfg.Net == nil {
		panic("embeddings: remote tier needs tables and its clients' network")
	}
	t := &RemoteTier{cfg: cfg, dim: cfg.Tables[0].Dim}
	for _, e := range cfg.Tables {
		if e.Dim != t.dim {
			panic(fmt.Sprintf("embeddings: table dim %d != %d", e.Dim, t.dim))
		}
	}
	for s := 0; s < cfg.Servers; s++ {
		opt := nn.NewSparseAdam(cfg.SparseLR)
		for f, e := range cfg.Tables {
			if f%cfg.Servers == s {
				opt.Prime(e)
			}
		}
		t.opts = append(t.opts, opt)
	}

	t.pairs = make([][]pair, cfg.Clients)
	for c := range t.pairs {
		t.pairs[c] = make([]pair, cfg.Servers)
		for s := range t.pairs[c] {
			pg := comm.NewGroupNet(2, cfg.Net, []int{c, cfg.Clients + s})
			t.pairs[c][s] = pair{client: pg[0], server: pg[1], turn: make(chan struct{}, 1)}
		}
		t.clients = append(t.clients, Cached(&remoteClient{t: t, rank: c}, cfg.CacheRows))
	}
	for s := range t.pairs[0] {
		t.pairs[0][s].turn <- struct{}{}
	}
	return t
}

// Client returns rank's store handle (cached when CacheRows > 0); stable
// across calls, so the hot-ID cache persists over the whole run.
func (t *RemoteTier) Client(rank int) Store { return t.clients[rank] }

// Stats aggregates wire and cache counters over all clients.
func (t *RemoteTier) Stats() TierStats {
	st := TierStats{
		Lookups:          atomic.LoadInt64(&t.lookups),
		Updates:          atomic.LoadInt64(&t.updates),
		LookupCrossBytes: atomic.LoadInt64(&t.lookupCrossBytes),
		UpdateCrossBytes: atomic.LoadInt64(&t.updateCrossBytes),
		LookupExposed:    time.Duration(atomic.LoadInt64(&t.lookupExposedNS)),
		UpdateExposed:    time.Duration(atomic.LoadInt64(&t.updateExposedNS)),
	}
	for _, c := range t.clients {
		cs := StatsOf(c)
		st.CacheHits += cs.Hits
		st.CacheMisses += cs.Misses
	}
	return st
}

// request is one round's request message: the client's lookups or updates
// for the server, in request order, by reference, and the rows they ask
// for in all, which sizes the response.
type request struct {
	update bool
	reqs   []Req
	ups    []Upd
	rows   int
}

// wireBytes is the request's int32 encoding, [kind, nTables, (table, n,
// ids...)*]; a nil request (a pair side that sends nothing) takes none.
func (r *request) wireBytes() int {
	if r == nil {
		return 0
	}
	n := 2
	for _, q := range r.reqs {
		n += 2 + len(q.IDs)
	}
	for _, u := range r.ups {
		n += 2 + len(u.Rows)
	}
	return 4 * n
}

// gradBytes is what an update's gradient rows take on the wire.
func (r *request) gradBytes() (n int) {
	if r != nil {
		for _, u := range r.ups {
			n += rowBytes(u.GradRows)
		}
	}
	return n
}

// round runs client c's round with server s under s's turn, accounts its
// wire bytes and exposure, and returns the server's response rows. The
// client's collectives send req and, for an update, its gradient rows; the
// server side receives the request and answers it. The turn passes on as
// soon as the server's half is done, before the client's final wait.
func (t *RemoteTier) round(c, s int, req *request) *tensor.Tensor {
	p := &t.pairs[c][s]
	select {
	case <-p.turn:
	case <-t.cfg.Net.Done():
		panic(fmt.Sprintf("embeddings: client %d's round with server %d abandoned: a rank panic killed the tier", c, s))
	}

	pc, sc := p.client, p.server
	e0, _ := pc.Times()
	sent := comm.IAlltoAll(pc, to(1, req), (*request).wireBytes)
	got := comm.AlltoAll(sc, make([]*request, 2), (*request).wireBytes)[0]
	sent.Wait()
	if got.update {
		sent := comm.IAlltoAll(pc, to(1, req), (*request).gradBytes)
		got = comm.AlltoAll(sc, make([]*request, 2), (*request).gradBytes)[0]
		sent.Wait()
	}
	rows := pc.IAlltoAllTensors(make([]*tensor.Tensor, 2))
	sc.AlltoAllTensors(to(0, t.serve(s, got)))
	t.pairs[(c+1)%t.cfg.Clients][s].turn <- struct{}{}
	// The next client now waits runnable on this P: yield, so that the
	// server's rounds go on at once rather than when this client blocks.
	runtime.Gosched()
	resp := rows.Wait()[1]

	e1, _ := pc.Times()
	exposed, wire := &t.lookupExposedNS, &t.lookupCrossBytes
	if req.update {
		exposed, wire = &t.updateExposedNS, &t.updateCrossBytes
	}
	atomic.AddInt64(exposed, int64(e1-e0))
	atomic.AddInt64(wire, int64(req.wireBytes()+req.gradBytes()+rowBytes(resp)))
	return resp
}

// serve is the server half of a round between its collectives. It gathers
// each requested row into the response, one slab in request order, after
// stepping the optimizer on an update's gradient rows.
func (t *RemoteTier) serve(s int, req *request) *tensor.Tensor {
	resp, r := tensor.New(req.rows, t.dim), 0
	for _, q := range req.reqs {
		e := serverTable(t, s, q.Table, q.IDs)
		for _, id := range q.IDs {
			copy(resp.Row(r), e.Table.Row(int(id)))
			r++
		}
	}
	for _, u := range req.ups {
		e := serverTable(t, s, u.Table, u.Rows)
		t.opts[s].Step(e, &nn.SparseGrad{Rows: u.Rows, Grads: u.GradRows})
		for _, id := range u.Rows {
			copy(resp.Row(r), e.Table.Row(id))
			r++
		}
	}
	return resp
}

// serverTable returns server s's table f after checking that it has every
// row of ids.
func serverTable[I int | int32](t *RemoteTier, s, f int, ids []I) *nn.EmbeddingBag {
	e := t.cfg.Tables[f]
	for _, id := range ids {
		if id < 0 || int(id) >= e.Rows {
			panic(fmt.Sprintf("embeddings: server %d: table %d has no row %d", s, f, id))
		}
	}
	return e
}

// remoteClient is compute rank `rank`'s uncached wire client. Each Lookup /
// Update fans the batched request out over the servers by table ownership —
// one round per server, ascending, empty rounds included — and hands back
// per-request views of the servers' response slabs, in request order.
type remoteClient struct {
	t    *RemoteTier
	rank int
}

func (rc *remoteClient) Dim() int { return rc.t.dim }

// routing is one client call's fan-out: per server, the request of its
// round, and per request, the span of its rows in that server's response.
type routing struct {
	msgs []request
	at   []rowSpan
}

type rowSpan struct{ server, off, n int }

func newRouting(servers, requests int, update bool) *routing {
	ro := &routing{msgs: make([]request, servers), at: make([]rowSpan, 0, requests)}
	for s := range ro.msgs {
		ro.msgs[s].update = update
	}
	return ro
}

// add routes the next request, of n rows, to its table's owning server,
// and returns that server's request.
func (ro *routing) add(table, n int) *request {
	s := table % len(ro.msgs)
	m := &ro.msgs[s]
	ro.at = append(ro.at, rowSpan{server: s, off: m.rows, n: n})
	m.rows += n
	return m
}

// send runs client c's round with every server, ascending, and cuts the
// response slabs into per-request tensors, views rather than copies: no
// slab is written again after its round.
func (ro *routing) send(t *RemoteTier, c int) []*tensor.Tensor {
	resp := make([]*tensor.Tensor, len(ro.msgs))
	for s := range resp {
		resp[s] = t.round(c, s, &ro.msgs[s])
	}
	out := make([]*tensor.Tensor, len(ro.at))
	for i, sp := range ro.at {
		out[i] = resp[sp.server].Rows(sp.off, sp.off+sp.n)
	}
	return out
}

// Lookup routes each request to its table's owning server and returns the
// per-request views of the servers' row responses.
func (rc *remoteClient) Lookup(reqs []Req) []*tensor.Tensor {
	t := rc.t
	atomic.AddInt64(&t.lookups, 1)
	ro := newRouting(t.cfg.Servers, len(reqs), false)
	for _, r := range reqs {
		m := ro.add(r.Table, len(r.IDs))
		m.reqs = append(m.reqs, r)
	}
	return ro.send(t, rc.rank)
}

// Update ships each table's sparse gradient to its owning server and
// returns the per-update views of the post-update rows the servers send
// back.
func (rc *remoteClient) Update(ups []Upd) []*tensor.Tensor {
	t := rc.t
	atomic.AddInt64(&t.updates, 1)
	ro := newRouting(t.cfg.Servers, len(ups), true)
	for _, u := range ups {
		m := ro.add(u.Table, len(u.Rows))
		m.ups = append(m.ups, u)
	}
	return ro.send(t, rc.rank)
}

// to addresses a payload to one side of a pair group (0 the client, 1 the
// server).
func to[T any](side int, x T) []T {
	out := make([]T, 2)
	out[side] = x
	return out
}

func rowBytes(x *tensor.Tensor) int {
	if x == nil {
		return 0
	}
	return 4 * x.Len()
}
