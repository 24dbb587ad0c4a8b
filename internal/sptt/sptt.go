// Package sptt implements the Semantic-Preserving Tower Transform (§3.1,
// Figure 7) — the paper's core contribution — and the flat global-AlltoAll
// embedding distribution it replaces (Figure 4) as ONE staged dataflow over
// the in-process collective runtime. Every flow takes the same per-rank
// sparse inputs and leaves, on every rank, the pooled embeddings of all
// features for that rank's local batch; the package tests verify that
// outputs and backward gradients agree bit for bit across flows — the
// "semantic-preserving" property Table 3 shows as AUC-neutrality.
//
// The dataflow has two halves, each with one reverse for the backward pass:
//
//   - The lookup half, steps (a)–(d), ends with each rank holding its
//     tower's block (F_t, T, B, N) for its peer class:
//     (a) feature-distribution AlltoAll of index payloads (global world),
//     (b) pooled embedding lookup of the global batch at the table's owner,
//     (c) peer permute, (d) intra-host AlltoAll (the NVLink domain).
//   - The exchange half: (e) the local (features, peers) -> (peers,
//     features) shuffle, an optional tower module (§3.2), and (f) L
//     concurrent peer AlltoAlls, each in a world of size T = G/L — the
//     dataflow's only cross-host hop for embeddings, written once as
//     post -> Comms overlap hook -> wait.
//
// Tables are sharded table-wise: each has one owner rank (Config.RankOf),
// which looks it up through Engine.Tier and pools its bag gradients in
// step (a)'s backward through the table's own PoolBackward
// (nn.EmbeddingBag), whose scratch index the table keeps: the engine keeps
// no per-table state of its own. §3.1.3's row-wise specialization,
// which splits one table's rows across a host, is not implemented: every
// table here fits one rank. A flow chooses two things and nothing else:
//
//   - whether a tower module sits between (e) and (f), compressing the
//     tower's embeddings before they cross hosts;
//   - whether step (f) exists at all: the flat baseline stops after (b) and
//     returns embeddings with a single global AlltoAll.
//
// Step (c) never moves data. §3.1.3 observes that the permute can be
// skipped by handing step (d) a virtual process group; here that is an
// index map (PeerOrder) through which step (d)'s send chunks are gathered,
// and the flat flow's AlltoAll is the same gather through the identity map.
// Lookups stay in source-rank order in every flow: §3.1.3's other
// specialization — permuting the index payloads before the lookup — would
// make pooling gradients accumulate over bags in peer order, equal to the
// flat flow's only up to float associativity, and would change the request
// bytes an embedding tier sees; rank order keeps both bit-identical.
//
// An Engine builds its communicator families and layout tables once and
// reuses them on every call, so it is NOT safe for concurrent calls: run
// one forward or backward at a time per Engine.
package sptt

import (
	"fmt"
	"sort"

	"dmt/internal/nn"
	"dmt/internal/tensor"
)

// FeatureSpec describes one sparse feature and its embedding table.
type FeatureSpec struct {
	Name        string
	Cardinality int
	// Hot is the bag size per sample (1 = single-hot); a bag pools to the
	// sum of its rows.
	Hot int
}

// Config is the static layout of an embedding-distribution problem.
type Config struct {
	G        int // total GPUs
	L        int // GPUs per host
	B        int // local batch size per GPU
	N        int // embedding dimension
	Features []FeatureSpec
	// TowerOf maps feature -> tower. With the identity "one tower per host"
	// deployment (§5.1 pins each tower to a single host), tower t lives on
	// host t. Baseline runs ignore TowerOf.
	TowerOf []int
	// RankOf maps feature -> owning global rank (table-wise placement).
	// For SPTT runs, RankOf[f] must be a rank of host TowerOf[f].
	RankOf []int
}

// T returns the number of towers (= hosts in the 1-host-per-tower layout).
func (c Config) T() int { return c.G / c.L }

// F returns the feature count.
func (c Config) F() int { return len(c.Features) }

// Validate checks structural invariants; spttOK additionally enforces the
// tower-locality constraint required by the transform.
func (c Config) Validate(spttOK bool) error {
	if c.G <= 0 || c.L <= 0 || c.G%c.L != 0 {
		return fmt.Errorf("sptt: G=%d must be a positive multiple of L=%d", c.G, c.L)
	}
	if c.B <= 0 || c.N <= 0 {
		return fmt.Errorf("sptt: B=%d and N=%d must be positive", c.B, c.N)
	}
	if len(c.RankOf) != c.F() {
		return fmt.Errorf("sptt: RankOf has %d entries for %d features", len(c.RankOf), c.F())
	}
	for f, r := range c.RankOf {
		if r < 0 || r >= c.G {
			return fmt.Errorf("sptt: feature %d owned by invalid rank %d", f, r)
		}
		if spttOK {
			if len(c.TowerOf) != c.F() {
				return fmt.Errorf("sptt: TowerOf has %d entries for %d features", len(c.TowerOf), c.F())
			}
			t := c.TowerOf[f]
			if t < 0 || t >= c.T() {
				return fmt.Errorf("sptt: feature %d in invalid tower %d", f, t)
			}
			if r/c.L != t {
				return fmt.Errorf("sptt: feature %d owned by rank %d outside tower %d's host", f, r, t)
			}
		}
	}
	return nil
}

// OwnedFeatures returns the features owned by a rank, ascending.
func (c Config) OwnedFeatures(rank int) []int {
	var out []int
	for f, r := range c.RankOf {
		if r == rank {
			out = append(out, f)
		}
	}
	return out
}

// TowerFeatures returns tower t's features in "host order": for each local
// rank of host t in ascending local index, that rank's owned features
// ascending. This is the feature order steps (d)–(f) materialize.
func (c Config) TowerFeatures(t int) []int {
	var out []int
	for j := 0; j < c.L; j++ {
		out = append(out, c.OwnedFeatures(t*c.L+j)...)
	}
	return out
}

// PeerOrder returns all global ranks sorted by (rank%L, rank/L): ranks of
// the same peer class (equal local index, §3.1.1's "peers") are contiguous,
// ordered by host within a class. For G=4, L=2 this is (0, 2, 1, 3),
// matching the paper's walk-through.
//
// Note: the paper's text writes the sort key as (g%T, g//L); for its 2×2
// example both keys give the same order, but only (g%L, g//L) groups peers
// contiguously in general, which is what steps (d)-(f) require.
func PeerOrder(g, l int) []int {
	order := make([]int, g)
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool {
		ka, kb := order[a]%l, order[b]%l
		if ka != kb {
			return ka < kb
		}
		return order[a]/l < order[b]/l
	})
	return order
}

// TowerAssignment converts a tower partition (towers[t] = feature list) into
// (TowerOf, RankOf): each tower's features are placed round-robin over its
// host's L ranks.
func TowerAssignment(towers [][]int, nFeatures, l int) (towerOf, rankOf []int, err error) {
	towerOf = make([]int, nFeatures)
	rankOf = make([]int, nFeatures)
	seen := make([]bool, nFeatures)
	for t, feats := range towers {
		for i, f := range feats {
			if f < 0 || f >= nFeatures {
				return nil, nil, fmt.Errorf("sptt: tower %d names invalid feature %d", t, f)
			}
			if seen[f] {
				return nil, nil, fmt.Errorf("sptt: feature %d assigned twice", f)
			}
			seen[f] = true
			towerOf[f] = t
			rankOf[f] = t*l + i%l
		}
	}
	for f, s := range seen {
		if !s {
			return nil, nil, fmt.Errorf("sptt: feature %d not assigned to any tower", f)
		}
	}
	return towerOf, rankOf, nil
}

// Inputs is one rank's local sparse batch: per feature, flat bag indices and
// per-sample bag offsets (the EmbeddingBag layout).
type Inputs struct {
	Indices [][]int32
	Offsets [][]int32
}

// checkInputs validates the per-rank sparse batches every flow starts from,
// before any rank goroutine runs: a malformed bag or an index outside its
// table would otherwise surface on the rank that decodes or looks it up
// rather than the one that supplied it.
func (c Config) checkInputs(inputs []*Inputs) error {
	if len(inputs) != c.G {
		return fmt.Errorf("sptt: %d inputs for %d ranks", len(inputs), c.G)
	}
	for r, in := range inputs {
		if in == nil || len(in.Indices) != c.F() || len(in.Offsets) != c.F() {
			return fmt.Errorf("sptt: rank %d inputs do not cover the %d features", r, c.F())
		}
		for f, offs := range in.Offsets {
			if len(offs) != c.B || offs[0] != 0 {
				return fmt.Errorf("sptt: rank %d feature %d: want %d bag offsets starting at 0", r, f, c.B)
			}
			for s := range offs {
				if _, end := nn.BagBounds(offs, s, len(in.Indices[f])); end < int(offs[s]) {
					return fmt.Errorf("sptt: rank %d feature %d: bag %d ends at %d, before its offset %d (%d indices)",
						r, f, s, end, offs[s], len(in.Indices[f]))
				}
			}
			for p, ix := range in.Indices[f] {
				if card := c.Features[f].Cardinality; ix < 0 || int(ix) >= card {
					return fmt.Errorf("sptt: rank %d feature %d: index %d at position %d outside the table's %d rows", r, f, ix, p, card)
				}
			}
		}
	}
	return nil
}

// encodeBags packs the bags of the given features from in into one int32
// payload: per feature, B bag sizes followed by the flat indices.
func encodeBags(features []int, in *Inputs, b int) []int32 {
	size := len(features) * b
	for _, f := range features {
		size += len(in.Indices[f])
	}
	payload := make([]int32, 0, size)
	for _, f := range features {
		offs := in.Offsets[f]
		idxs := in.Indices[f]
		for s := 0; s < b; s++ {
			lo, hi := nn.BagBounds(offs, s, len(idxs))
			payload = append(payload, int32(hi-lo))
		}
		payload = append(payload, idxs...)
	}
	return payload
}

// decodeBags unpacks a payload produced by encodeBags.
func decodeBags(payload []int32, nFeatures, b int) (indices [][]int32, offsets [][]int32) {
	indices = make([][]int32, nFeatures)
	offsets = make([][]int32, nFeatures)
	offs := make([]int32, nFeatures*b)
	pos := 0
	for f := 0; f < nFeatures; f++ {
		sizes := payload[pos : pos+b]
		pos += b
		offsets[f] = offs[f*b : (f+1)*b : (f+1)*b]
		total := 0
		for s := 0; s < b; s++ {
			offsets[f][s] = int32(total)
			total += int(sizes[s])
		}
		indices[f] = payload[pos : pos+total]
		pos += total
	}
	return indices, offsets
}

// poolRows performs the pure step (b) pooling kernel over pre-gathered
// embedding rows: rows.Row(p) is the embedding of bag position p (the
// embeddings.Store response for the flat index list the offsets describe).
// The float additions run in exactly the order the former direct-table
// kernel used, so pooling store-gathered rows is bitwise identical to
// pooling table rows in place.
func poolRows(a *tensor.Arena, rows *tensor.Tensor, offsets []int32, dim int) *tensor.Tensor {
	b := len(offsets)
	out := a.New(b, dim)
	for s := 0; s < b; s++ {
		lo, hi := nn.BagBounds(offsets, s, rows.Dim(0))
		dst := out.Row(s)
		for p := lo; p < hi; p++ {
			src := rows.Row(p)
			for d := 0; d < dim; d++ {
				dst[d] += src[d]
			}
		}
	}
	return out
}
