package embeddings

import (
	"fmt"
	"sync"
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
	// tier takes them over: after NewRemote only server goroutines touch
	// them, and clients reach rows exclusively through the wire protocol.
	Tables []*nn.EmbeddingBag
	// SparseLR drives the per-server SparseAdam.
	SparseLR float32
	// CacheRows is each client's hot-ID cache capacity (0 disables).
	CacheRows int
	// Net prices the request/response rounds; it must span Clients+Servers
	// global ranks. nil runs the protocol on zero-delay groups (tests).
	Net *comm.Network
}

// RemoteTier disaggregates the embedding tables onto dedicated server ranks.
// Each (client, server) pair owns a private 2-rank comm group; a client
// round is one request collective plus one (lookup) or two (update) row
// collectives on that pair, and each server is one goroutine serving clients
// round-robin in ascending rank order — a fixed schedule that keeps the
// virtual timeline deterministic. Round symmetry (see Store) guarantees the
// schedule never starves: every client issues exactly one round to every
// server per phase, empty or not.
//
// Server goroutines run under comm.RunLinked with every pair group linked,
// so a server panic (e.g. an out-of-range row id) cancels all of them and
// any client blocked on a response aborts instead of deadlocking — the same
// teardown cascade the SPTT dataflow relies on, extended to the server-rank
// topology.
type RemoteTier struct {
	cfg RemoteConfig
	dim int
	// pairs[c][s] is the 2-rank group of client c and server s (client is
	// group rank 0, server rank 1).
	pairs   [][][]*comm.Comm
	clients []Store
	opts    []*nn.SparseAdam // per server

	// settled[c][s] carries one token per finished round of pair (c, s),
	// from the server to the client (see settle). Capacity 1: the client
	// takes a round's token before it starts the pair's next round.
	settled [][]chan struct{}

	done   chan struct{}
	closed int32

	mu  sync.Mutex
	err error

	lookups, updates                   int64
	lookupCrossBytes, updateCrossBytes int64
	lookupExposedNS, updateExposedNS   int64
}

// NewRemote builds the tier and starts the server goroutines.
func NewRemote(cfg RemoteConfig) *RemoteTier {
	if cfg.Clients <= 0 || cfg.Servers <= 0 {
		panic(fmt.Sprintf("embeddings: remote tier with %d clients, %d servers", cfg.Clients, cfg.Servers))
	}
	if len(cfg.Tables) == 0 {
		panic("embeddings: remote tier over zero tables")
	}
	t := &RemoteTier{cfg: cfg, dim: cfg.Tables[0].Dim, done: make(chan struct{})}
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

	t.pairs = make([][][]*comm.Comm, cfg.Clients)
	t.settled = make([][]chan struct{}, cfg.Clients)
	linked := make([][]*comm.Comm, 0, cfg.Clients*cfg.Servers)
	for c := 0; c < cfg.Clients; c++ {
		t.pairs[c] = make([][]*comm.Comm, cfg.Servers)
		t.settled[c] = make([]chan struct{}, cfg.Servers)
		for s := 0; s < cfg.Servers; s++ {
			t.settled[c][s] = make(chan struct{}, 1)
			pg := comm.NewGroupNet(2, cfg.Net, []int{c, cfg.Clients + s})
			t.pairs[c][s] = pg
			linked = append(linked, pg)
		}
	}
	for c := 0; c < cfg.Clients; c++ {
		t.clients = append(t.clients, Cached(&remoteClient{t: t, rank: c}, cfg.CacheRows))
	}

	granks := make([]int, cfg.Servers)
	for s := range granks {
		granks[s] = cfg.Clients + s
	}
	serverComms := comm.NewGroupNet(cfg.Servers, cfg.Net, granks)
	go func() {
		defer close(t.done)
		defer func() {
			if r := recover(); r != nil && atomic.LoadInt32(&t.closed) == 0 {
				t.mu.Lock()
				t.err = fmt.Errorf("embeddings: server tier died: %v", r)
				t.mu.Unlock()
			}
		}()
		comm.RunLinked(serverComms, linked, t.serveLoop)
	}()
	return t
}

// Client returns rank's store handle (cached when CacheRows > 0); stable
// across calls, so the hot-ID cache persists over the whole run.
func (t *RemoteTier) Client(rank int) Store { return t.clients[rank] }

// Close cancels the pair groups, which wakes every server out of its
// blocking request receive, and waits for the server goroutines to exit.
// Idempotent.
func (t *RemoteTier) Close() {
	if atomic.CompareAndSwapInt32(&t.closed, 0, 1) {
		for _, row := range t.pairs {
			for _, pg := range row {
				comm.CancelGroup(pg)
			}
		}
	}
	<-t.done
}

// Stats aggregates wire and cache counters over all clients.
func (t *RemoteTier) Stats() TierStats {
	st := TierStats{
		Lookups:          atomic.LoadInt64(&t.lookups),
		Updates:          atomic.LoadInt64(&t.updates),
		LookupCrossBytes: atomic.LoadInt64(&t.lookupCrossBytes),
		UpdateCrossBytes: atomic.LoadInt64(&t.updateCrossBytes),
	}
	st.LookupExposed = durationOf(&t.lookupExposedNS)
	st.UpdateExposed = durationOf(&t.updateExposedNS)
	for _, c := range t.clients {
		cs := StatsOf(c)
		st.CacheHits += cs.Hits
		st.CacheMisses += cs.Misses
	}
	return st
}

func durationOf(ns *int64) time.Duration { return time.Duration(atomic.LoadInt64(ns)) }

// serveLoop is one server rank's life: serve clients round-robin forever,
// until cancellation (Close or a peer failure) aborts a receive.
func (t *RemoteTier) serveLoop(c *comm.Comm) {
	s := c.Rank()
	for {
		for cl := 0; cl < t.cfg.Clients; cl++ {
			t.serveRound(t.pairs[cl][s][1], cl, s)
		}
	}
}

// serveRound answers one client round on a pair group: decode the request,
// then run the kind's response collectives. The rows it gathers, and the
// gradient payload it steps the optimizer on, are one slab per round.
func (t *RemoteTier) serveRound(pc *comm.Comm, cl, s int) {
	req := pc.AlltoAllInt32(make([][]int32, 2))[0]
	kind, tables, ids := decodeRequest(req)
	total := 0
	for _, sub := range ids {
		total += len(sub)
	}
	resp := tensor.New(total, t.dim)
	switch kind {
	case roundLookup:
		r := 0
		for i, f := range tables {
			e := t.cfg.Tables[f]
			for _, id := range ids[i] {
				copy(resp.Row(r), e.Table.Row(int(id)))
				r++
			}
		}
	case roundUpdate:
		grads := pc.AlltoAllTensors(make([]*tensor.Tensor, 2))[0]
		rows := make([]int, total)
		r := 0
		for i, f := range tables {
			e := t.cfg.Tables[f]
			n := len(ids[i])
			sub := rows[r : r+n]
			for j, id := range ids[i] {
				sub[j] = int(id)
			}
			t.opts[s].Step(e, &nn.SparseGrad{Rows: sub, Grads: rowsView(grads, r, n, t.dim)})
			for j, row := range sub {
				copy(resp.Row(r+j), e.Table.Row(row))
			}
			r += n
		}
	default:
		panic(fmt.Sprintf("embeddings: unknown round kind %d", kind))
	}
	// The response is posted and waited in two steps only so that tests can
	// yield between them (serveRoundHook); AlltoAllTensors is the same pair.
	pending := pc.IAlltoAllTensors(pairT(resp, 0))
	if serveRoundHook != nil {
		serveRoundHook()
	}
	pending.Wait()
	// The wait's last receive — the client's empty chunk — may advance this
	// server's clock after the client already holds its rows; the client
	// leaves the round only once that has happened (see settle).
	t.settled[cl][s] <- struct{}{}
}

// serveRoundHook, when non-nil, runs on the server goroutine between
// posting a round's response and receiving the client's side of that
// collective. Tests set it (SetServeRoundHook) to widen the window in which
// a server is still finishing a round its client has the rows of.
var serveRoundHook func()

// SetServeRoundHook installs fn as the server-round test hook and returns a
// function restoring the previous one. Test-only; not safe while any tier
// is running rounds.
func SetServeRoundHook(fn func()) (restore func()) {
	prev := serveRoundHook
	serveRoundHook = fn
	return func() { serveRoundHook = prev }
}

// settle blocks the client of pair (cl, s) until the server has finished the
// round the client just received the response of. It is host-side only — no
// message, no virtual clock — and exists for observers of the clocks: the
// server's last receive of a round can advance its clock, and a reader of
// comm.Network.Now between phases (the trainer's phase walls) must see that
// advance on every run, not on the runs where the server goroutine happened
// to get there first. A dead tier (a server panic cancels every server)
// aborts the wait the way a canceled receive would.
func (t *RemoteTier) settle(cl, s int) {
	select {
	case <-t.settled[cl][s]:
	case <-t.done:
		panic("embeddings: round abandoned: server tier canceled")
	}
}

// rowsView views rows [lo, lo+n) of a (rows, dim) slab as a tensor of their
// own. Collectives deliver payloads by reference and no slab is written
// again after its round, so per-request results need no copy.
func rowsView(slab *tensor.Tensor, lo, n, dim int) *tensor.Tensor {
	return tensor.FromSlice(slab.Data()[lo*dim:(lo+n)*dim], n, dim)
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

func decodeRequest(req []int32) (kind int32, tables []int32, ids [][]int32) {
	kind = req[0]
	n := int(req[1])
	tables, ids = make([]int32, n), make([][]int32, n)
	pos := 2
	for i := 0; i < n; i++ {
		tables[i] = req[pos]
		cnt := int(req[pos+1])
		pos += 2
		ids[i] = req[pos : pos+cnt]
		pos += cnt
	}
	return kind, tables, ids
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

// views cuts the per-server response slabs into per-request tensors.
func (ro *routing) views(resp []*tensor.Tensor, dim int) []*tensor.Tensor {
	out := make([]*tensor.Tensor, len(ro.at))
	for i, sp := range ro.at {
		out[i] = rowsView(resp[sp.server], sp.off, sp.n, dim)
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
		pc := t.pairs[rc.rank][s][0]
		req := encodeRequest(roundLookup, ro.tables[s], ro.ids[s])
		e0, _ := pc.Times()
		pc.AlltoAllInt32(pair2(req))
		rows := pc.AlltoAllTensors(make([]*tensor.Tensor, 2))[1]
		t.settle(rc.rank, s)
		e1, _ := pc.Times()
		atomic.AddInt64(&t.lookupExposedNS, int64(e1-e0))
		atomic.AddInt64(&t.lookupCrossBytes, int64(4*len(req))+rowBytes(rows))
		resp[s] = rows
	}
	return ro.views(resp, t.dim)
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
		pc := t.pairs[rc.rank][s][0]
		req := encodeRequest(roundUpdate, ro.tables[s], ro.ids[s])
		// One gradient payload per round: the server's updates in request
		// order (ups and ro.at run in step).
		grads := tensor.New(ro.rows[s], t.dim)
		for i, sp := range ro.at {
			if sp.server == s {
				copy(grads.Data()[sp.off*t.dim:(sp.off+sp.n)*t.dim], ups[i].GradRows.Data())
			}
		}
		e0, _ := pc.Times()
		pc.AlltoAllInt32(pair2(req))
		pc.AlltoAllTensors(pairT(grads, 1))
		fresh := pc.AlltoAllTensors(make([]*tensor.Tensor, 2))[1]
		t.settle(rc.rank, s)
		e1, _ := pc.Times()
		atomic.AddInt64(&t.updateExposedNS, int64(e1-e0))
		atomic.AddInt64(&t.updateCrossBytes, int64(4*len(req))+rowBytes(grads)+rowBytes(fresh))
		resp[s] = fresh
	}
	return ro.views(resp, t.dim)
}

// pair2 addresses a request payload to the server side of a pair group.
func pair2(req []int32) [][]int32 {
	out := make([][]int32, 2)
	out[1] = req
	return out
}

// pairT addresses a tensor payload to one side of a pair group (0 the
// client, 1 the server).
func pairT(x *tensor.Tensor, to int) []*tensor.Tensor {
	out := make([]*tensor.Tensor, 2)
	out[to] = x
	return out
}

func rowBytes(x *tensor.Tensor) int64 {
	if x == nil {
		return 0
	}
	return 4 * int64(x.Len())
}
