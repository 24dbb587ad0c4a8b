// Package data provides the synthetic Criteo-like CTR workload that stands
// in for the paper's datasets (Criteo for the open-source models, an
// internal dataset for XLRM), which are not available in this environment.
//
// The generator plants exactly the structure the paper's quality experiments
// depend on:
//
//   - Each categorical value of each sparse feature has a fixed latent vector
//     drawn from a *group-specific subspace*. Features in the same
//     ground-truth group therefore have meaningful pairwise interactions;
//     cross-group interactions carry almost no label signal. This is the
//     "feature interaction can be sparse" premise of §3.2 and gives the
//     Tower Partitioner (§3.3) a real block structure to discover.
//   - The label logit is the sum of within-group pairwise dot products of
//     pooled latents, a dense linear term, a bias, and Gaussian noise, so
//     attainable AUC is controlled by NoiseStd.
//
// Every sample is a pure function of (Seed, sample index), so train/eval
// splits, multi-rank data loading, and repeated runs are exactly
// reproducible with no materialized dataset.
package data

import (
	"math"

	"dmt/internal/tensor"
)

// Schema describes the feature layout of the workload.
type Schema struct {
	NumDense      int   // number of continuous features
	Cardinalities []int // hash size per categorical feature
	HotSizes      []int // bag length per categorical feature (1 = single-hot)
}

// NumSparse returns the number of categorical features.
func (s Schema) NumSparse() int { return len(s.Cardinalities) }

// The label model's fixed shape, the same for every workload.
const (
	embDim           = 16   // latent dimensionality of ground-truth embeddings
	subDim           = 4    // dimensionality of each group's latent subspace
	logitBias        = -0.9 // controls the positive rate
	interactionScale = 1.1  // scales within-group pairwise terms
	denseScale       = 0.30 // scales the dense features' linear contribution
)

// Config parameterizes the synthetic workload.
type Config struct {
	Schema
	Seed      uint64
	NumGroups int     // ground-truth interaction groups
	NoiseStd  float64 // logit noise; larger = lower attainable AUC
}

// CriteoLike returns the default configuration mirroring the Criteo Kaggle
// layout used by the open-source DLRM/DCN baselines: 13 dense and 26
// single-hot sparse features. Cardinalities are reduced (the real dataset's
// run to millions) to keep in-process training fast; the structure the
// experiments need is unaffected.
func CriteoLike(seed uint64) Config {
	const nSparse = 26
	cards := make([]int, nSparse)
	hots := make([]int, nSparse)
	for i := range cards {
		// Mix of small and large vocabularies, deterministic per slot.
		switch i % 4 {
		case 0:
			cards[i] = 200
		case 1:
			cards[i] = 1000
		case 2:
			cards[i] = 500
		default:
			cards[i] = 2000
		}
		hots[i] = 1
	}
	return Config{
		Schema:    Schema{NumDense: 13, Cardinalities: cards, HotSizes: hots},
		Seed:      seed,
		NumGroups: 8,
		NoiseStd:  1.5,
	}
}

// XLRMMini returns a scaled-down analog of the paper's internal XLRM
// workload: features fall into the three categories §5.2.3 reports TP
// discovering — dedicated item, item-user cross, and dedicated user — with
// multi-hot user-history features.
func XLRMMini(seed uint64) Config {
	cfg := CriteoLike(seed)
	const nSparse = 24
	cards := make([]int, nSparse)
	hots := make([]int, nSparse)
	for i := range cards {
		cards[i] = 800
		hots[i] = 1
		if i >= 16 { // user-history features are multi-hot
			hots[i] = 4
		}
	}
	cfg.Schema = Schema{NumDense: 8, Cardinalities: cards, HotSizes: hots}
	cfg.NumGroups = 3 // item / item-user / user
	cfg.NoiseStd = 2.0
	return cfg
}

// Generator produces deterministic batches and exposes the planted ground
// truth for tests and the partitioner experiments.
type Generator struct {
	cfg     Config
	latents []*tensor.Tensor // per feature: (cardinality, embDim) in its group subspace
	groups  []int            // ground-truth group of each feature
	denseW  []float64        // linear weights for dense features
}

// NewGenerator builds the latent tables for the configuration.
func NewGenerator(cfg Config) *Generator {
	if cfg.NumGroups <= 0 {
		panic("data: NumGroups must be positive")
	}
	root := tensor.NewRNG(cfg.Seed)
	g := &Generator{cfg: cfg}

	// Orthogonal-ish random basis per group: (embDim, subDim) with N(0,1)
	// columns; high embDim makes random subspaces nearly orthogonal, which
	// is what suppresses cross-group interaction signal.
	bases := make([]*tensor.Tensor, cfg.NumGroups)
	basisRNG := root.Split(1)
	for gi := range bases {
		bases[gi] = tensor.RandN(basisRNG, 1/math.Sqrt(float64(subDim)), embDim, subDim)
	}

	g.groups = make([]int, cfg.NumSparse())
	for f := range g.groups {
		// Contiguous block assignment keeps the planted structure legible in
		// Figure 9-style similarity matrices while exercising TP fully
		// (learned embeddings are what TP sees, not this assignment).
		g.groups[f] = f * cfg.NumGroups / cfg.NumSparse()
	}

	latRNG := root.Split(2)
	g.latents = make([]*tensor.Tensor, cfg.NumSparse())
	for f := 0; f < cfg.NumSparse(); f++ {
		card := cfg.Cardinalities[f]
		z := tensor.RandN(latRNG, 1, card, subDim)
		// latent = z @ basisᵀ -> (card, embDim), then normalize each row to
		// unit norm so pairwise dots are O(1) and the logit scale is
		// controlled by interactionScale alone (labels must stay noisy:
		// near-deterministic labels of per-row latents are unlearnable at
		// in-process sample budgets).
		lat := tensor.MatMulBT(z, bases[g.groups[f]])
		for rIdx := 0; rIdx < card; rIdx++ {
			row := lat.Row(rIdx)
			var norm float64
			for _, v := range row {
				norm += float64(float64(v) * float64(v))
			}
			if norm > 0 {
				inv := float32(1 / math.Sqrt(norm))
				for d := range row {
					row[d] *= inv
				}
			}
		}
		g.latents[f] = lat
	}

	wRNG := root.Split(3)
	g.denseW = make([]float64, cfg.NumDense)
	for i := range g.denseW {
		g.denseW[i] = wRNG.NormFloat64()
	}
	return g
}

// Config returns the generator's configuration.
func (g *Generator) Config() Config { return g.cfg }

// TrueGroups returns the planted feature partition as index lists.
func (g *Generator) TrueGroups() [][]int {
	out := make([][]int, g.cfg.NumGroups)
	for f, gi := range g.groups {
		out[gi] = append(out[gi], f)
	}
	return out
}

// mix combines the seed with sample/feature/slot coordinates into an
// independent 64-bit stream value (SplitMix64 finalizer).
func (g *Generator) mix(stream, sample uint64, feature, slot int) uint64 {
	z := g.cfg.Seed ^ stream*0x9e3779b97f4a7c15 ^ sample*0xbf58476d1ce4e5b9 ^
		uint64(feature)*0x94d049bb133111eb ^ uint64(slot)*0xd6e8feb86659fd93
	z ^= z >> 30
	z *= 0xbf58476d1ce4e5b9
	z ^= z >> 27
	z *= 0x94d049bb133111eb
	z ^= z >> 31
	return z
}

func (g *Generator) uniform(stream, sample uint64, feature, slot int) float64 {
	return float64(g.mix(stream, sample, feature, slot)>>11) / float64(1<<53)
}

// normal produces one deterministic standard-normal deviate per coordinate.
func (g *Generator) normal(stream, sample uint64, feature, slot int) float64 {
	u := g.uniform(stream, sample, feature, 2*slot)
	v := g.uniform(stream, sample, feature, 2*slot+1)
	if u < 1e-300 {
		u = 1e-300
	}
	return math.Sqrt(-2*math.Log(u)) * math.Cos(2*math.Pi*v)
}

// Streams used by mix; distinct constants keep coordinates independent.
const (
	streamIndex = 11
	streamDense = 13
	streamNoise = 17
	streamLabel = 19
)

// Batch holds one minibatch in the layout the models consume: one dense
// matrix plus per-feature index/offset lists for EmbeddingBag lookup.
type Batch struct {
	Start   int
	Size    int
	Dense   *tensor.Tensor // (Size, NumDense)
	Indices [][]int32      // per feature: flat bag indices
	Offsets [][]int32      // per feature: bag start per sample (len = Size)
	Labels  []float32
	// Logits are the noiseless ground-truth logits, exposed for tests that
	// bound attainable quality.
	Logits []float64
}

// Batch materializes samples [start, start+size).
func (g *Generator) Batch(start, size int) *Batch {
	cfg := g.cfg
	nf := cfg.NumSparse()
	b := &Batch{
		Start:   start,
		Size:    size,
		Dense:   tensor.New(size, cfg.NumDense),
		Indices: make([][]int32, nf),
		Offsets: make([][]int32, nf),
		Labels:  make([]float32, size),
		Logits:  make([]float64, size),
	}
	for f := 0; f < nf; f++ {
		h := cfg.HotSizes[f]
		b.Indices[f] = make([]int32, 0, size*h)
		b.Offsets[f] = make([]int32, size)
	}

	pooled := tensor.New(nf, embDim) // reused per sample
	for s := 0; s < size; s++ {
		sample := uint64(start + s)
		// Dense features.
		for d := 0; d < cfg.NumDense; d++ {
			b.Dense.Set(float32(g.normal(streamDense, sample, d, 0)), s, d)
		}
		// Sparse features: deterministic bags + pooled ground-truth latents.
		pooled.Zero()
		for f := 0; f < nf; f++ {
			h := cfg.HotSizes[f]
			b.Offsets[f][s] = int32(len(b.Indices[f]))
			dst := pooled.Row(f)
			for k := 0; k < h; k++ {
				idx := int32(g.mix(streamIndex, sample, f, k) % uint64(cfg.Cardinalities[f]))
				b.Indices[f] = append(b.Indices[f], idx)
				src := g.latents[f].Row(int(idx))
				for d := range dst {
					dst[d] += src[d]
				}
			}
			inv := 1 / float32(h)
			for d := range dst {
				dst[d] *= inv
			}
		}
		// Logit: within-group pairwise interactions + dense linear + bias.
		logit := logitBias
		for i := 0; i < nf; i++ {
			ri := pooled.Row(i)
			for j := i + 1; j < nf; j++ {
				if g.groups[i] != g.groups[j] {
					continue
				}
				rj := pooled.Row(j)
				var dot float64
				for d := range ri {
					dot += float64(float64(ri[d]) * float64(rj[d]))
				}
				logit += float64(interactionScale * dot)
			}
		}
		for d := 0; d < cfg.NumDense; d++ {
			logit += float64(denseScale * g.denseW[d] * float64(b.Dense.At(s, d)))
		}
		b.Logits[s] = logit
		noisy := logit + float64(cfg.NoiseStd*g.normal(streamNoise, sample, 0, 0))
		p := 1 / (1 + math.Exp(-noisy))
		if g.uniform(streamLabel, sample, 0, 0) < p {
			b.Labels[s] = 1
		}
	}
	return b
}

// LatentBatch returns the pooled ground-truth latents for m samples as a
// (m, F, embDim) tensor — the "oracle embeddings" used by partitioner tests
// in place of learned embeddings.
func (g *Generator) LatentBatch(start, m int) *tensor.Tensor {
	cfg := g.cfg
	nf := cfg.NumSparse()
	out := tensor.New(m, nf, embDim)
	for s := 0; s < m; s++ {
		sample := uint64(start + s)
		for f := 0; f < nf; f++ {
			dst := out.Data()[(s*nf+f)*embDim : (s*nf+f+1)*embDim]
			h := cfg.HotSizes[f]
			for k := 0; k < h; k++ {
				idx := int(g.mix(streamIndex, sample, f, k) % uint64(cfg.Cardinalities[f]))
				src := g.latents[f].Row(idx)
				for d := range dst {
					dst[d] += src[d]
				}
			}
			inv := 1 / float32(h)
			for d := range dst {
				dst[d] *= inv
			}
		}
	}
	return out
}
