package embeddings

import (
	"fmt"
	"sync/atomic"

	"dmt/internal/nn"
	"dmt/internal/tensor"
)

// Local is the in-process Store: lookups copy rows straight out of the
// wrapped tables and updates run SparseAdam on them. It is shared by every
// client rank of a LocalTier; the per-table single-owner contract makes the
// concurrent owner-rank Lookups/Updates race-free (SparseAdam is primed at
// construction, and distinct tables have disjoint state).
type Local struct {
	tables []*nn.EmbeddingBag
	opt    *nn.SparseAdam
	dim    int

	lookups int64
	updates int64
}

// NewLocal wraps tables (indexed by feature) with a primed SparseAdam at the
// given learning rate. All tables must share one embedding dimension.
func NewLocal(tables []*nn.EmbeddingBag, lr float32) *Local {
	if len(tables) == 0 {
		panic("embeddings: local store over zero tables")
	}
	l := &Local{tables: tables, opt: nn.NewSparseAdam(lr), dim: tables[0].Dim}
	for _, e := range tables {
		if e.Dim != l.dim {
			panic(fmt.Sprintf("embeddings: table dim %d != %d", e.Dim, l.dim))
		}
		l.opt.Prime(e)
	}
	return l
}

// Dim returns the shared embedding dimension.
func (l *Local) Dim() int { return l.dim }

// Lookup gathers row copies from the wrapped tables.
func (l *Local) Lookup(reqs []Req) []*tensor.Tensor {
	atomic.AddInt64(&l.lookups, 1)
	out := make([]*tensor.Tensor, len(reqs))
	for i, r := range reqs {
		out[i] = l.tables[r.Table].LookupRows(r.IDs)
	}
	return out
}

// Update applies each sparse gradient with SparseAdam and returns the
// refreshed rows.
func (l *Local) Update(ups []Upd) []*tensor.Tensor {
	atomic.AddInt64(&l.updates, 1)
	out := make([]*tensor.Tensor, len(ups))
	for i, u := range ups {
		e := l.tables[u.Table]
		l.opt.Step(e, &nn.SparseGrad{Rows: u.Rows, Grads: u.GradRows})
		fresh := tensor.New(len(u.Rows), l.dim)
		for j, row := range u.Rows {
			copy(fresh.Row(j), e.Table.Row(row))
		}
		out[i] = fresh
	}
	return out
}

// LocalTier hands every client rank the same in-process Local store — the
// Servers=0 point of the memory:compute sweep, and the default for every
// trainer that predates disaggregation.
type LocalTier struct {
	store *Local
}

// NewLocalTier builds the tier.
func NewLocalTier(tables []*nn.EmbeddingBag, lr float32) *LocalTier {
	return &LocalTier{store: NewLocal(tables, lr)}
}

// Client returns the shared local store for any rank.
func (t *LocalTier) Client(rank int) Store { return t.store }

// Stats reports call counts; wire bytes and exposure are zero — local
// lookups are memory reads.
func (t *LocalTier) Stats() TierStats {
	return TierStats{
		Lookups: atomic.LoadInt64(&t.store.lookups),
		Updates: atomic.LoadInt64(&t.store.updates),
	}
}
