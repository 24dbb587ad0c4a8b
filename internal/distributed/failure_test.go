package distributed

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"dmt/internal/data"
	"dmt/internal/embeddings"
	"dmt/internal/nn"
	"dmt/internal/tensor"
)

// TestRankPanicSweep injects a panic on one rank of a G = 4 trainer, under
// both schedules and every embedding tier, at each phase a test reaches
// without a production hook. The step must panic naming that rank, within
// a bound, whatever its peers were blocked on: a collective of the world
// group or of an SPTT family, or an embedding server's turn. The package's
// TestMain then holds that no goroutine is left behind.
//
// Where each fault fires (the pipelined schedule's owner step and weight
// gathers run one step later, so every case runs two steps):
//
//	fault            blocking      pipelined
//	tier lookup      SPTT fwd      SPTT fwd
//	bottom weight    dense         SPTT fwd
//	top weight       dense         dense
//	bottom grad      dense         SPTT bwd
//	tower grad       SPTT bwd      SPTT bwd
//	bucket snapshot  exchange      dense
//	tier update      update        update
//	owner step       update        next step's head
//	weight gather    update        next SPTT fwd
//
// Not reached: the pipelined schedule's exchange phase. There a rank only
// scales gradients, which has no shape to break.
func TestRankPanicSweep(t *testing.T) {
	faults := []struct {
		name   string
		inject func(tr *Trainer, r int)
	}{
		{"tier lookup", func(tr *Trainer, r int) { failTier(tr, r, true) }},
		{"bottom weight", func(tr *Trainer, r int) { misshape(&tr.replicas[r].Bottom.Layers[0].W.Value) }},
		{"top weight", func(tr *Trainer, r int) { misshape(&tr.replicas[r].Top.Layers[0].W.Value) }},
		{"bottom grad", func(tr *Trainer, r int) { misshape(&tr.replicas[r].Bottom.Layers[0].W.Grad) }},
		{"tower grad", func(tr *Trainer, r int) { misshape(&tr.modules[r].Params()[0].Grad) }},
		{"bucket snapshot", func(tr *Trainer, r int) { misshape(&tr.shards[r].views[0][0][0].snap) }},
		{"tier update", func(tr *Trainer, r int) { failTier(tr, r, false) }},
		{"owner step", func(tr *Trainer, r int) {
			var big *nn.Param
			for _, p := range tr.shards[r].owned {
				if big == nil || p.Value.Len() > big.Value.Len() {
					big = p
				}
			}
			misshape(&big.Grad)
		}},
		{"weight gather", func(tr *Trainer, r int) {
			for _, slots := range tr.shards[r].recv {
				for _, rows := range slots {
					for j := range rows {
						misshape(&rows[j])
					}
				}
			}
		}},
	}
	schedules := []struct {
		name string
		set  func(*Config)
	}{
		{"blocking", func(*Config) {}},
		{"pipelined", func(c *Config) { c.Pipeline = 1 }},
	}
	tiers := []struct {
		name string
		tier EmbeddingTier
	}{
		{"local", EmbeddingTier{}},
		{"remote", EmbeddingTier{Servers: 2}},
		{"remote+cache", EmbeddingTier{Servers: 2, CacheRows: 16}},
	}
	cfg, gen := testSetup(12)
	var batches [2][]*data.Batch
	for step := range batches {
		_, batches[step] = splitGlobalBatch(gen, step, cfg.G, cfg.LocalBatch)
	}
	for _, sc := range schedules {
		for _, ti := range tiers {
			for _, f := range faults {
				for r := 0; r < cfg.G; r++ {
					c := cfg
					sc.set(&c)
					c.EmbeddingTier = ti.tier
					tr, err := New(c)
					if err != nil {
						t.Fatal(err)
					}
					f.inject(tr, r)
					msg := stepPanic(t, func() {
						tr.Step(batches[0])
						tr.Step(batches[1])
					})
					if want := fmt.Sprintf("comm: rank %d panicked", r); !strings.Contains(msg, want) {
						t.Fatalf("%s/%s/%s on rank %d: the step's panic does not name the rank:\n%s",
							sc.name, ti.name, f.name, r, msg)
					}
				}
			}
		}
	}
}

// misshape replaces *x with a one-element tensor, so the first kernel that
// reads or writes it as its real shape panics.
func misshape(x **tensor.Tensor) { *x = tensor.New(1) }

// failTier installs, in the trainer and its engine, a tier whose rank-r
// store panics before its Lookup (lookup) or its Update (!lookup) reaches
// the wire.
func failTier(tr *Trainer, r int, lookup bool) {
	ft := failingTier{Tier: tr.tier, rank: r, lookup: lookup}
	tr.tier, tr.engine.Tier = ft, ft
}

type failingTier struct {
	embeddings.Tier
	rank   int
	lookup bool
}

func (ft failingTier) Client(g int) embeddings.Store {
	if g != ft.rank {
		return ft.Tier.Client(g)
	}
	return failingStore{Store: ft.Tier.Client(g), lookup: ft.lookup}
}

type failingStore struct {
	embeddings.Store
	lookup bool
}

func (s failingStore) Lookup(reqs []embeddings.Req) []*tensor.Tensor {
	if s.lookup {
		panic("injected tier lookup failure")
	}
	return s.Store.Lookup(reqs)
}

func (s failingStore) Update(ups []embeddings.Upd) []*tensor.Tensor {
	if !s.lookup {
		panic("injected tier update failure")
	}
	return s.Store.Update(ups)
}

// stepPanic runs fn and returns what it panicked with, failing the test if
// fn returns cleanly or is still running after 10 s.
func stepPanic(t *testing.T, fn func()) string {
	t.Helper()
	done := make(chan any, 1)
	go func() {
		defer func() { done <- recover() }()
		fn()
	}()
	select {
	case r := <-done:
		if r == nil {
			t.Fatal("the steps returned cleanly; want a panic")
		}
		return fmt.Sprint(r)
	case <-time.After(10 * time.Second):
		t.Fatal("the step still blocked after 10 s; want a panic")
		return ""
	}
}
