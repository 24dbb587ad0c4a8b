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

// Round kinds of the client→server request protocol.
const (
	roundLookup int32 = iota
	roundUpdate
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
// collectives on that pair.
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

// round runs client c's round with server s under s's turn, accounts its
// wire bytes and exposure, and returns the server's response rows. The
// client's collectives send req and, for an update, grads; the server side
// receives the request and answers it. The turn passes on as soon as the
// server's half is done, before the client's final wait.
func (t *RemoteTier) round(c, s int, req []int32, grads *tensor.Tensor) *tensor.Tensor {
	p := &t.pairs[c][s]
	select {
	case <-p.turn:
	case <-t.cfg.Net.Done():
		panic(fmt.Sprintf("embeddings: client %d's round with server %d abandoned: a rank panic killed the tier", c, s))
	}

	pc, sc := p.client, p.server
	e0, _ := pc.Times()
	reqs := pc.IAlltoAllInt32(to(1, req))
	got := sc.AlltoAllInt32(make([][]int32, 2))[0]
	reqs.Wait()
	var gotGrads *tensor.Tensor
	if got[0] == roundUpdate {
		sent := pc.IAlltoAllTensors(to(1, grads))
		gotGrads = sc.AlltoAllTensors(make([]*tensor.Tensor, 2))[0]
		sent.Wait()
	}
	rows := pc.IAlltoAllTensors(make([]*tensor.Tensor, 2))
	sc.AlltoAllTensors(to(0, t.serve(s, got, gotGrads)))
	t.pairs[(c+1)%t.cfg.Clients][s].turn <- struct{}{}
	// The next client now waits runnable on this P: yield, so that the
	// server's rounds go on at once rather than when this client blocks.
	runtime.Gosched()
	resp := rows.Wait()[1]

	e1, _ := pc.Times()
	exposed, wire := &t.lookupExposedNS, &t.lookupCrossBytes
	if grads != nil {
		exposed, wire = &t.updateExposedNS, &t.updateCrossBytes
	}
	atomic.AddInt64(exposed, int64(e1-e0))
	atomic.AddInt64(wire, int64(4*len(req))+rowBytes(grads)+rowBytes(resp))
	return resp
}

// serve is the server half of a round between its collectives. It walks the
// request (see encodeRequest) and gathers each id's row into the response,
// after stepping the optimizer on the ids' gradient rows for an update. The
// response, and the gradient payload an update steps on, are one slab each.
func (t *RemoteTier) serve(s int, req []int32, grads *tensor.Tensor) *tensor.Tensor {
	resp := tensor.New(len(req)-2-2*int(req[1]), t.dim)
	var rows []int
	if req[0] == roundUpdate {
		rows = make([]int, resp.Dim(0))
	}
	for pos, r := 2, 0; pos < len(req); {
		f, ids := req[pos], req[pos+2:pos+2+int(req[pos+1])]
		pos += 2 + len(ids)
		e := t.cfg.Tables[f]
		for _, id := range ids {
			if id < 0 || int(id) >= e.Rows {
				panic(fmt.Sprintf("embeddings: server %d: table %d has no row %d", s, f, id))
			}
		}
		if req[0] == roundUpdate {
			sub := rows[r : r+len(ids)]
			for j, id := range ids {
				sub[j] = int(id)
			}
			t.opts[s].Step(e, &nn.SparseGrad{Rows: sub, Grads: grads.Rows(r, r+len(sub))})
		}
		for _, id := range ids {
			copy(resp.Row(r), e.Table.Row(int(id)))
			r++
		}
	}
	return resp
}

// encodeRequest packs a round request: [kind, nTables, (table, n, ids...)*].
func encodeRequest(kind int32, tables []int32, ids [][]int32) []int32 {
	size := 2 + 2*len(tables)
	for _, sub := range ids {
		size += len(sub)
	}
	out := make([]int32, 2, size)
	out[0], out[1] = kind, int32(len(tables))
	for i, f := range tables {
		out = append(out, f, int32(len(ids[i])))
		out = append(out, ids[i]...)
	}
	return out
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

// routing is one client call's fan-out: per server, the tables and id lists
// of its round in request order, and per request, the span of its rows in
// that server's response.
type routing struct {
	tables [][]int32
	ids    [][][]int32
	rows   []int // per server: rows in its response
	at     []rowSpan
}

type rowSpan struct{ server, off, n int }

func newRouting(servers, requests int) *routing {
	return &routing{
		tables: make([][]int32, servers), ids: make([][][]int32, servers),
		rows: make([]int, servers), at: make([]rowSpan, 0, requests),
	}
}

// add routes the next request to its table's owning server.
func (ro *routing) add(table int, ids []int32) {
	s := table % len(ro.rows)
	ro.tables[s] = append(ro.tables[s], int32(table))
	ro.ids[s] = append(ro.ids[s], ids)
	ro.at = append(ro.at, rowSpan{server: s, off: ro.rows[s], n: len(ids)})
	ro.rows[s] += len(ids)
}

// views cuts the per-server response slabs into per-request tensors,
// views rather than copies: no slab is written again after its round.
func (ro *routing) views(resp []*tensor.Tensor) []*tensor.Tensor {
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
	ro := newRouting(t.cfg.Servers, len(reqs))
	for _, r := range reqs {
		ro.add(r.Table, r.IDs)
	}
	resp := make([]*tensor.Tensor, t.cfg.Servers)
	for s := range resp {
		resp[s] = t.round(rc.rank, s, encodeRequest(roundLookup, ro.tables[s], ro.ids[s]), nil)
	}
	return ro.views(resp)
}

// Update ships each table's sparse gradient to its owning server and
// returns the per-update views of the post-update rows the servers send
// back.
func (rc *remoteClient) Update(ups []Upd) []*tensor.Tensor {
	t := rc.t
	atomic.AddInt64(&t.updates, 1)
	total := 0
	for _, u := range ups {
		total += len(u.Rows)
	}
	ids := make([]int32, total)
	ro := newRouting(t.cfg.Servers, len(ups))
	for _, u := range ups {
		sub := ids[:len(u.Rows):len(u.Rows)]
		ids = ids[len(u.Rows):]
		for j, r := range u.Rows {
			sub[j] = int32(r)
		}
		ro.add(u.Table, sub)
	}

	resp := make([]*tensor.Tensor, t.cfg.Servers)
	for s := range resp {
		// One gradient payload per round: the server's updates in request
		// order (ups and ro.at run in step).
		grads := tensor.New(ro.rows[s], t.dim)
		for i, sp := range ro.at {
			if sp.server == s {
				copy(grads.Data()[sp.off*t.dim:(sp.off+sp.n)*t.dim], ups[i].GradRows.Data())
			}
		}
		resp[s] = t.round(rc.rank, s, encodeRequest(roundUpdate, ro.tables[s], ro.ids[s]), grads)
	}
	return ro.views(resp)
}

// to addresses a payload to one side of a pair group (0 the client, 1 the
// server).
func to[T any](side int, x T) []T {
	out := make([]T, 2)
	out[side] = x
	return out
}

func rowBytes(x *tensor.Tensor) int64 {
	if x == nil {
		return 0
	}
	return 4 * int64(x.Len())
}
