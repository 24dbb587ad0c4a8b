// Package embeddings is the repo's single embedding backend: every model-side
// consumer of embedding rows — the SPTT dataflow's step (b) lookup, the
// distributed trainer's sparse update, the serving caches — goes through one
// redesigned Store API instead of touching nn.EmbeddingBag tables directly.
//
// A Store answers batched row traffic for the tables its client is allowed to
// reach (per-table ownership stays with the caller's placement, exactly as
// before). Two implementations exist:
//
//   - Local wraps the in-process tables. It is a pure reroute: the rows it
//     returns are bitwise copies of the table rows, so trainer trajectories
//     are bit-identical to the pre-refactor direct-access code.
//   - Remote (see remote.go) disaggregates the tables onto dedicated
//     embedding-server ranks, DisaggRec-style: lookups and updates become
//     request/response rounds over comm collectives priced by the fabric's
//     P2P cost model, and compute ranks keep a write-back hot-ID cache
//     (Cached, generalizing the serving LRU) in front of the wire.
//
// Both implement the same Store and are built through a Tier, the per-job
// handle the distributed trainer owns.
//
// # The cache core: one row cache, one presence set
//
// One unlocked LRU, lruCore (cache.go), backs every cache in the tree: a
// slice of pointer-free entries (key and two int32 links) in a recency ring
// around a sentinel, plus an open-addressed index of entry positions. A hit
// or a refresh relinks indices, and an insert into a full core re-keys the
// least recent entry in place; getOrInsert does a lookup and, on a miss,
// the insert in one probe. The core stores no values: each user keeps
// them beside it, indexed by entry position. Two types wrap it, splitting
// keys over cores with the same selector and the same per-core capacity,
// so both make the same hit, miss and eviction decisions:
//
//   - Keyed, the one row cache, behind the serving caches and CachedStore:
//     one mutex per core, because serve workers really do read and write
//     it concurrently. Its callers reach it a batch at a time (GetRows,
//     FillRows, PutRows): a call sorts its keys by core and takes each
//     core's lock once, not once per row, keeping the keys' call order
//     within a core, so every core sees the operations a row at a time
//     would make. It owns its vectors — one slab per core, entry i's at
//     i·stride, grown with the live entries — and copies in and out under
//     the core's lock, so an evicting insert overwrites a row in place and
//     allocates nothing. CachedStore, the training-side write-back cache,
//     makes one read and one write per request and one write per update,
//     so an embedding-bound step takes no lock per row.
//   - LRUSet, the cluster simulator's replica caches, the presence set:
//     bare cores with no rows and no lock, since its one caller only asks
//     whether a key is present, answering each key in one getOrInsert
//     probe. Touch takes a key NsKey has already namespaced, as a
//     KeyBatch's keys are, so the simulator derives each sample's keys
//     once per run rather than once per touch.
//
// # Aliasing
//
// Lookup and Update results are views: a remote client cuts each server's
// response slab into one tensor per request, and CachedStore fills one slab
// per call. The tensors of one call are disjoint, belong to the caller, and
// stay valid for as long as the caller holds them — no implementation
// reuses a result buffer across calls, so none is a //dmt:transient-result.
// In the other direction a Store only reads its arguments, and only until
// the call returns; callers may reuse request and gradient buffers.
package embeddings

import (
	"time"

	"dmt/internal/tensor"
)

// Req asks for the embedding rows of one table: IDs are row indices, in
// caller order, duplicates allowed. The response tensor has one row per ID,
// in the same order.
type Req struct {
	Table int
	IDs   []int32
}

// Upd applies one table's coalesced sparse gradient. Rows must be sorted
// ascending (the nn.SparseGrad contract). GradRows[i] is the gradient for
// Rows[i]; both have one entry per touched row.
type Upd struct {
	Table    int
	Rows     []int
	GradRows *tensor.Tensor // (len(Rows), dim)
}

// Store is the redesigned embedding backend API. Lookup returns one
// (len(IDs), dim) tensor per request; Update applies optimizer steps and
// returns the POST-update rows, one (len(Rows), dim) tensor per update —
// the write-back hook that lets a caching decorator refresh instead of
// invalidate (every looked-up row is updated every training step, so
// invalidation would never hit).
//
// Ownership contract: each table has exactly one client rank that looks it
// up and updates it (the trainer's per-table owner rank). Implementations
// rely on it — it is what makes per-client caches trivially coherent and
// server-side request interleaving value-irrelevant.
//
// Aliasing contract: the tensors one call returns are disjoint views (of a
// response slab, typically), the caller's to keep and to write; nothing is
// reused across calls. Implementations do not retain reqs, ups, or any slice
// or tensor inside them past the call.
//
// Round symmetry contract (remote stores): every client must call Lookup
// once per lookup phase and Update once per update phase even when it owns
// no tables or has no traffic — an empty request still takes each server's
// turn and passes it on to the clients waiting for it. Local stores don't
// care.
type Store interface {
	// Dim returns the embedding dimension shared by every table.
	Dim() int
	Lookup(reqs []Req) []*tensor.Tensor
	Update(ups []Upd) []*tensor.Tensor
}

// Tier builds and owns the per-rank stores of one training job. A tier
// starts no goroutine and holds nothing to release: a remote tier's server
// side runs inside its clients' own rounds (see RemoteTier).
type Tier interface {
	// Client returns compute rank g's store. Stable across calls: per-rank
	// caches live in the store, so callers must reuse the same handle.
	Client(rank int) Store
	Stats() TierStats
}

// TierStats aggregates the tier's traffic over all clients. Byte counters
// and exposure cover only the disaggregated wire (zero for a Local tier —
// its lookups are memory reads, exactly the asymmetry the memory:compute
// sweep measures).
type TierStats struct {
	// Lookups / Updates count store calls (per client, per phase).
	Lookups int64
	Updates int64
	// Hot-ID cache counters summed over the clients' Cached decorators.
	CacheHits   uint64
	CacheMisses uint64
	// Cross-host wire bytes of the request/response rounds, split by kind.
	// Embedding servers sit on their own memory hosts, so all tier traffic
	// is cross-host by construction.
	LookupCrossBytes int64
	UpdateCrossBytes int64
	// Modeled virtual-clock time clients waited for server responses (summed
	// over clients; zero on a zero-delay RemoteConfig.Net).
	LookupExposed time.Duration
	UpdateExposed time.Duration
}
