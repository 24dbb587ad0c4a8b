package embeddings

import (
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"dmt/internal/comm"
	"dmt/internal/nn"
	"dmt/internal/tensor"
)

// makeTables builds nTables deterministic tables of rows x dim.
func makeTables(nTables, rows, dim int, seed uint64) []*nn.EmbeddingBag {
	rng := tensor.NewRNG(seed)
	out := make([]*nn.EmbeddingBag, nTables)
	for f := range out {
		out[f] = nn.NewEmbeddingBag(rng, rows, dim, fmt.Sprintf("emb%d", f))
	}
	return out
}

// gradFor builds a deterministic (len(rows), dim) gradient tensor.
func gradFor(rows []int, dim int, salt float32) *tensor.Tensor {
	g := tensor.New(len(rows), dim)
	for i, r := range rows {
		for j := 0; j < dim; j++ {
			g.Row(i)[j] = salt * float32(r+1) / float32(j+2)
		}
	}
	return g
}

// TestLocalTierStatsCountCalls: Local is its own Tier. Every rank's
// client is the one store, and Stats counts each Lookup and Update call,
// empty ones included, with no wire bytes, exposure or cache counters.
func TestLocalTierStatsCountCalls(t *testing.T) {
	var tier Tier = NewLocal(makeTables(2, 8, 4, 1), 0.01)
	c0, c3 := tier.Client(0), tier.Client(3)
	if c0 != c3 {
		t.Fatal("a Local tier hands different ranks different stores")
	}
	c0.Lookup([]Req{{Table: 0, IDs: []int32{1, 2, 2}}})
	c3.Lookup(nil)
	c3.Update([]Upd{{Table: 1, Rows: []int{3}, GradRows: tensor.Full(0.5, 1, 4)}})
	c0.Lookup([]Req{{Table: 1, IDs: []int32{3}}})
	if got, want := tier.Stats(), (TierStats{Lookups: 3, Updates: 1}); got != want {
		t.Fatalf("Stats() = %+v, want %+v", got, want)
	}
}

// TestRemoteMatchesLocal drives a Local tier and a Remote tier (2 clients,
// 2 servers, zero-delay wires) through identical lookup/update phases over
// identically seeded tables. Every returned row must match bitwise — the
// wire protocol moves rows, it never changes them — and the remote tier
// must account nonzero lookup and update wire bytes.
func TestRemoteMatchesLocal(t *testing.T) {
	const (
		nTables = 4
		rows    = 16
		dim     = 8
		lr      = 0.01
	)
	local := NewLocal(makeTables(nTables, rows, dim, 42), lr)
	remote := NewRemote(RemoteConfig{
		Clients: 2, Servers: 2,
		Tables:   makeTables(nTables, rows, dim, 42),
		SparseLR: lr,
		Net:      comm.NewNetwork(nil, 4),
	})
	// Fix the per-table single-owner contract: client 0 owns tables 0 and 1,
	// client 1 owns tables 2 and 3.
	owned := [][]int{{0, 1}, {2, 3}}

	for iter := 0; iter < 3; iter++ {
		// Lookup phase, clients in ascending order (the servers' round-robin
		// schedule). Duplicate IDs exercise response reassembly.
		got := make([][]*tensor.Tensor, 2)
		want := make([][]*tensor.Tensor, 2)
		for c := 0; c < 2; c++ {
			var reqs []Req
			for _, f := range owned[c] {
				ids := []int32{int32((f + iter) % rows), 3, 3, int32(rows - 1)}
				reqs = append(reqs, Req{Table: f, IDs: ids})
			}
			got[c] = remote.Client(c).Lookup(reqs)
			want[c] = local.Client(c).Lookup(reqs)
		}
		for c := 0; c < 2; c++ {
			for i := range got[c] {
				if !got[c][i].Equal(want[c][i]) {
					t.Fatalf("iter %d client %d req %d: remote lookup diverged from local", iter, c, i)
				}
			}
		}

		// Update phase, same order. Returned post-update rows must agree too
		// (they are what the write-back cache would absorb).
		for c := 0; c < 2; c++ {
			var ups []Upd
			for _, f := range owned[c] {
				rws := []int{(f + iter) % rows, 3, rows - 1}
				ups = append(ups, Upd{Table: f, Rows: rws, GradRows: gradFor(rws, dim, float32(iter+1))})
			}
			gotF := remote.Client(c).Update(ups)
			wantF := local.Client(c).Update(ups)
			for i := range gotF {
				if !gotF[i].Equal(wantF[i]) {
					t.Fatalf("iter %d client %d upd %d: remote post-update rows diverged from local", iter, c, i)
				}
			}
		}
	}

	st := remote.Stats()
	if st.LookupCrossBytes == 0 || st.UpdateCrossBytes == 0 {
		t.Fatalf("remote tier accounted no wire bytes: %+v", st)
	}
	if st.Lookups == 0 || st.Updates == 0 {
		t.Fatalf("remote tier accounted no rounds: %+v", st)
	}
}

// TestCachedWriteBackConcurrent is the -race hammer: several owner
// goroutines banging on ONE shared Cached store over disjoint tables —
// concurrent Lookup, Update, and write-back refresh through the sharded
// LRU. Values must stay exact: after every update the next lookup (a cache
// hit) must return the same rows the inner store holds.
func TestCachedWriteBackConcurrent(t *testing.T) {
	const (
		owners = 4
		rows   = 32
		dim    = 4
		iters  = 200
	)
	tables := makeTables(owners, rows, dim, 7)
	inner := NewLocal(tables, 0.01)
	store := Cached(inner, owners*rows)

	var wg sync.WaitGroup
	errs := make(chan error, owners)
	for c := 0; c < owners; c++ {
		wg.Add(1)
		go func(f int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				ids := []int32{int32(i % rows), int32((i + 1) % rows), int32(i % rows)}
				store.Lookup([]Req{{Table: f, IDs: ids}})
				rws := []int{i % rows, (i + 7) % rows}
				if rws[0] > rws[1] {
					rws[0], rws[1] = rws[1], rws[0]
				} else if rws[0] == rws[1] {
					continue
				}
				fresh := store.Update([]Upd{{Table: f, Rows: rws, GradRows: gradFor(rws, dim, 0.5)}})
				// The write-back refresh makes the next lookup a hit; it must
				// serve exactly the rows the update returned.
				again := store.Lookup([]Req{{Table: f, IDs: []int32{int32(rws[0]), int32(rws[1])}}})
				for j := range rws {
					for k := 0; k < dim; k++ {
						if again[0].Row(j)[k] != fresh[0].Row(j)[k] {
							errs <- fmt.Errorf("table %d iter %d: cached row diverged from write-back", f, i)
							return
						}
					}
				}
			}
		}(c)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if cs := StatsOf(store); cs.Hits == 0 {
		t.Fatalf("hammer produced no cache hits: %+v", cs)
	}
}

// TestCachedDisabled: rows<=0 must return the inner store unchanged.
func TestCachedDisabled(t *testing.T) {
	inner := NewLocal(makeTables(1, 4, 2, 1), 0.01)
	if s := Cached(inner, 0); s != Store(inner) {
		t.Fatal("Cached(inner, 0) wrapped instead of returning inner")
	}
	if cs := StatsOf(inner); cs != (CacheStats{}) {
		t.Fatalf("StatsOf on an uncached store: %+v", cs)
	}
}

// TestServerPanicCancelsComputeGroups is the teardown-cascade regression
// for a round whose server half panics (an out-of-range row id). The panic
// surfaces on the asking client inside its compute-group comm.Run, which
// names the rank and the id and cancels the network, so a sibling rank
// blocked on a compute collective wakes up. The cancellation also kills the
// tier: a later Lookup by another client, which waits for the dead server's
// turn, panics instead of hanging.
func TestServerPanicCancelsComputeGroups(t *testing.T) {
	net := comm.NewNetwork(nil, 3)
	tier := NewRemote(RemoteConfig{
		Clients: 2, Servers: 1,
		Tables:   makeTables(2, 8, 4, 3),
		SparseLR: 0.01,
		Net:      net,
	})
	compute := comm.NewGroupNet(2, net, nil)
	r := panicWithin(t, func() {
		comm.Run(compute, func(c *comm.Comm) {
			if c.Rank() == 0 {
				// Row id 8 is out of range for an 8-row table.
				tier.Client(0).Lookup([]Req{{Table: 0, IDs: []int32{8}}})
			}
			// Rank 1 blocks on a compute collective the dying rank will never
			// join; only the cancellation cascade can free it.
			compute[c.Rank()].AllReduceSum(tensor.FromSlice([]float32{1}, 1))
		})
	})
	if msg := fmt.Sprint(r); !strings.Contains(msg, "rank 0 panicked") || !strings.Contains(msg, "no row 8") {
		t.Fatalf("compute Run panic should name rank 0 and row 8: %v", r)
	}
	r = panicWithin(t, func() { tier.Client(1).Lookup([]Req{{Table: 1, IDs: []int32{0}}}) })
	if msg := fmt.Sprint(r); !strings.Contains(msg, "killed the tier") {
		t.Fatalf("a Lookup on the dead tier should report it: %v", r)
	}
}

// TestRankPanicBeforeRoundFreesTurnWaiters: a compute rank that panics
// before its round never passes on the server turns its peers wait for.
// The compute group and the tier share one network, so the panic cancels
// both: rank 2, waiting for the turn rank 1 would have passed on, and rank
// 0, blocked on a compute collective, both abort, and Run names rank 1.
func TestRankPanicBeforeRoundFreesTurnWaiters(t *testing.T) {
	net := comm.NewNetwork(nil, 4)
	tier := NewRemote(RemoteConfig{
		Clients: 3, Servers: 1,
		Tables:   makeTables(2, 8, 4, 3),
		SparseLR: 0.01,
		Net:      net,
	})
	compute := comm.NewGroupNet(3, net, nil)
	r := panicWithin(t, func() {
		comm.Run(compute, func(c *comm.Comm) {
			switch c.Rank() {
			case 0:
				c.AllReduceSum(tensor.FromSlice([]float32{1}, 1))
			case 1:
				panic("rank 1 fails before its Lookup")
			case 2:
				tier.Client(2).Lookup([]Req{{Table: 0, IDs: []int32{0}}})
			}
		})
	})
	if msg := fmt.Sprint(r); !strings.Contains(msg, "comm: rank 1 panicked") {
		t.Fatalf("Run should name rank 1: %v", r)
	}
}

// TestTurnWaitIsACascade: a turn wait that the cancellation ends is not a
// failure of its own. Rank 0's first Lookup passes the turn to rank 1,
// which fails holding it; rank 0's second Lookup then waits on that turn
// and aborts. Run must name rank 1, the rank that failed first, although
// rank 0 is the lower rank.
func TestTurnWaitIsACascade(t *testing.T) {
	net := comm.NewNetwork(nil, 3)
	tier := NewRemote(RemoteConfig{
		Clients: 2, Servers: 1,
		Tables:   makeTables(2, 8, 4, 3),
		SparseLR: 0.01,
		Net:      net,
	})
	compute := comm.NewGroupNet(2, net, nil)
	passed := make(chan struct{})
	r := panicWithin(t, func() {
		comm.Run(compute, func(c *comm.Comm) {
			if c.Rank() == 1 {
				<-passed
				panic("rank 1 fails holding the turn")
			}
			tier.Client(0).Lookup([]Req{{Table: 0, IDs: []int32{0}}})
			close(passed)
			tier.Client(0).Lookup([]Req{{Table: 0, IDs: []int32{1}}})
		})
	})
	if msg := fmt.Sprint(r); !strings.Contains(msg, "comm: rank 1 panicked") {
		t.Fatalf("Run should name rank 1, which failed first: %v", r)
	}
}

// panicWithin runs fn and returns what it panicked with, failing the test if
// fn returns cleanly or is still running after 30 s.
func panicWithin(t *testing.T, fn func()) any {
	t.Helper()
	done := make(chan any, 1)
	go func() {
		defer func() { done <- recover() }()
		fn()
	}()
	select {
	case r := <-done:
		if r == nil {
			t.Fatal("returned cleanly; want a panic")
		}
		return r
	case <-time.After(30 * time.Second):
		t.Fatal("still blocked after 30 s; want a panic")
		return nil
	}
}
