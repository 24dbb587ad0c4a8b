package distributed

import (
	"fmt"
	"math"
	"math/rand/v2"
	"slices"
	"testing"

	"dmt/internal/data"
	"dmt/internal/models"
	"dmt/internal/netsim"
	"dmt/internal/quant"
	"dmt/internal/sptt"
	"dmt/internal/topology"
)

// propCase is one point of the configuration space the property test
// draws: a small trainer configuration and how many steps it trains.
type propCase struct {
	seed  uint64
	cfg   Config
	dcfg  data.Config
	steps int
}

func (pc propCase) String() string {
	c := pc.cfg
	fabric := "none"
	if c.Fabric != nil {
		fabric = c.Fabric.Gen.Name
	}
	return fmt.Sprintf("seed %d: G=%d L=%d B=%d steps=%d features=%d cards=%v hots=%v N=%d C=%d P=%d D=%d top=%v "+
		"wire grad=%s emb=%s BucketBytes=%d tier servers=%d cache=%d fabric=%s",
		pc.seed, c.G, c.L, c.LocalBatch, pc.steps, c.Model.Schema.NumSparse(), c.Model.Schema.Cardinalities,
		c.Model.Schema.HotSizes, c.Model.N, c.Model.C, c.Model.P, c.Model.D, c.Model.TopMLP,
		c.Compression.Gradient, c.Compression.Embedding, c.BucketBytes,
		c.EmbeddingTier.Servers, c.EmbeddingTier.CacheRows, fabric)
}

// genCase draws a configuration from seed: G in {2, 4, 6, 8, 12} at any
// ranks-per-host that divides it (one host and one rank per host
// included), as many towers as hosts over up to four more features than
// towers, 1–3-hot bags over small tables, a tower module with C per-feature
// and P flat projections, a top MLP of 1–3 layers, a wire scheme per link
// class, bucket caps down to 1 byte, and the tables in-process or on 1–3
// embedding servers with or without a cache, on the zero-delay network or
// the A100 fabric.
func genCase(seed uint64) propCase {
	r := rand.New(rand.NewPCG(seed, 0x9e3779b97f4a7c15))
	pick := func(xs ...int) int { return xs[r.IntN(len(xs))] }
	schemes := []quant.Scheme{quant.None, quant.FP16, quant.INT8, quant.INT4}

	g := pick(2, 4, 6, 8, 12)
	var divisors []int
	for l := 1; l <= g; l++ {
		if g%l == 0 {
			divisors = append(divisors, l)
		}
	}
	l := divisors[r.IntN(len(divisors))]
	towers := g / l
	features := towers + r.IntN(5)

	dcfg := data.CriteoLike(seed)
	dcfg.Cardinalities = make([]int, features)
	dcfg.HotSizes = make([]int, features)
	for f := range dcfg.Cardinalities {
		dcfg.Cardinalities[f] = 8 + r.IntN(33)
		dcfg.HotSizes[f] = 1 + r.IntN(3)
	}
	dcfg.NumGroups = towers

	cp := [][2]int{{1, 0}, {0, 1}, {2, 0}, {1, 1}}[r.IntN(4)]
	d := pick(2, 4)
	top := make([]int, 1+r.IntN(3))
	for i := range top {
		top[i] = pick(4, 8, 16)
	}
	cfg := Config{
		G: g, L: l, LocalBatch: 2 + r.IntN(4),
		Model: models.DMTDLRMConfig{
			Schema: dcfg.Schema, N: pick(2, 4, 8),
			Towers: models.RoundRobinTowers(towers, features),
			C:      cp[0], P: cp[1], D: d,
			BottomMLP: []int{8, d},
			TopMLP:    top,
			Seed:      seed,
		},
		DenseLR: 1e-3, SparseLR: 1e-2,
		BucketBytes: pick(0, 1, 64, 512),
		Compression: Compression{Gradient: schemes[r.IntN(4)], Embedding: schemes[r.IntN(4)]},
	}
	if servers := r.IntN(4); servers > 0 {
		cfg.EmbeddingTier = EmbeddingTier{Servers: servers, CacheRows: pick(0, 4, 64)}
	}
	if r.IntN(2) == 1 {
		cfg.Fabric = netsim.New(topology.A100)
	}
	return propCase{seed: seed, cfg: cfg, dcfg: dcfg, steps: 3 + r.IntN(2)}
}

// checkCase trains the drawn configuration under every engine and holds
// each to the oracles the repo has:
//   - the blocking and pipelined schedules against the sequential reference
//     step: every step's mean and per-rank losses, and after Drain every
//     rank's dense parameters, error-feedback residuals and the tables, bit
//     for bit; the embedding and embedding-tier byte counters equal, and
//     the two schedules' gradient byte counters equal;
//   - a remote tier's trajectory against the in-process Local tier's:
//     losses and tables;
//   - SPTTForward against the flat flow's BaselineForward on the last
//     step's inputs (§3.1, Table 3: SPTT only moves data).
func checkCase(t *testing.T, seed uint64) {
	t.Helper()
	pc := genCase(seed)
	fail := func(format string, a ...any) {
		t.Helper()
		t.Fatalf("%s\n%s", fmt.Sprintf(format, a...), pc)
	}
	build := func(mut func(*Config)) *Trainer {
		c := pc.cfg
		mut(&c)
		tr, err := New(c)
		if err != nil {
			fail("New: %v", err)
		}
		return tr
	}
	engines := []struct {
		name string
		tr   *Trainer
	}{
		{"sequential", build(func(c *Config) { c.Sequential = true })},
		{"blocking", build(func(*Config) {})},
		{"pipelined", build(func(c *Config) { c.Pipeline = 1 })},
	}
	// local is the trajectory's Local-tier reference: the sequential
	// engine itself when the tables are in-process.
	local := engines[0].tr
	if pc.cfg.EmbeddingTier.Servers > 0 {
		local = build(func(c *Config) { c.Sequential, c.EmbeddingTier = true, EmbeddingTier{} })
		engines = append(engines, struct {
			name string
			tr   *Trainer
		}{"local tier", local})
	}
	defer func() {
		for _, e := range engines {
			e.tr.Close()
		}
	}()

	gen := data.NewGenerator(pc.dcfg)
	var batches []*data.Batch
	for step := 0; step < pc.steps; step++ {
		_, batches = splitGlobalBatch(gen, step, pc.cfg.G, pc.cfg.LocalBatch)
		want := engines[0].tr.Step(batches)
		for _, e := range engines[1:] {
			got := e.tr.Step(batches)
			if math.Float64bits(got.MeanLoss) != math.Float64bits(want.MeanLoss) {
				fail("%s step %d: loss %v, sequential %v", e.name, step, got.MeanLoss, want.MeanLoss)
			}
			for g := range got.PerRankLoss {
				if math.Float64bits(got.PerRankLoss[g]) != math.Float64bits(want.PerRankLoss[g]) {
					fail("%s step %d rank %d: loss %v, sequential %v", e.name, step, g, got.PerRankLoss[g], want.PerRankLoss[g])
				}
			}
		}
	}

	seq := engines[0].tr
	for _, e := range engines {
		e.tr.Drain()
	}
	for _, e := range engines[1:] {
		for f := range e.tr.Engine().Tables {
			if !e.tr.Engine().Tables[f].Table.Equal(seq.Engine().Tables[f].Table) {
				fail("%s: table %d differs from the sequential engine's", e.name, f)
			}
		}
		if e.tr == local {
			continue // a sequential engine of its own: the trajectory is all it shares
		}
		if err := e.tr.ReplicasInSync(); err != nil {
			fail("%s: %v", e.name, err)
		}
		for g := 0; g < pc.cfg.G; g++ {
			pp, sp := e.tr.Replica(g).DenseParams(), seq.Replica(g).DenseParams()
			for pi := range pp {
				if !pp[pi].Value.Equal(sp[pi].Value) {
					fail("%s: rank %d param %s differs from the sequential engine's", e.name, g, pp[pi].Name)
				}
			}
			for pi := range e.tr.Replica(g).OverArchParams() {
				if r := e.tr.Residual(g, pi); r != nil && !r.Equal(seq.Residual(g, pi)) {
					fail("%s: rank %d error-feedback residual %d differs from the sequential engine's", e.name, g, pi)
				}
			}
		}
		got, want := e.tr.Stats(), seq.Stats()
		if got.EmbIntraHostBytes != want.EmbIntraHostBytes || got.EmbCrossHostBytes != want.EmbCrossHostBytes {
			fail("%s: embedding bytes %d/%d, sequential %d/%d", e.name,
				got.EmbIntraHostBytes, got.EmbCrossHostBytes, want.EmbIntraHostBytes, want.EmbCrossHostBytes)
		}
		if gt, wt := got.Tier, want.Tier; gt.LookupCrossBytes != wt.LookupCrossBytes || gt.UpdateCrossBytes != wt.UpdateCrossBytes ||
			gt.CacheHits != wt.CacheHits || gt.CacheMisses != wt.CacheMisses {
			fail("%s: tier counters %+v, sequential %+v", e.name, gt, wt)
		}
	}
	if b, p := engines[1].tr.Stats(), engines[2].tr.Stats(); b.GradIntraHostBytes != p.GradIntraHostBytes || b.GradCrossHostBytes != p.GradCrossHostBytes {
		fail("gradient bytes: blocking %d/%d, pipelined %d/%d",
			b.GradIntraHostBytes, b.GradCrossHostBytes, p.GradIntraHostBytes, p.GradCrossHostBytes)
	}

	inputs := make([]*sptt.Inputs, pc.cfg.G)
	for g, b := range batches {
		inputs[g] = &sptt.Inputs{Indices: b.Indices, Offsets: b.Offsets}
	}
	flat, _ := local.Engine().BaselineForward(inputs)
	flat = slices.Clone(flat)
	for g := range flat {
		flat[g] = flat[g].Clone() // the next pass may reuse the output's memory
	}
	transformed, _ := local.Engine().SPTTForward(inputs, sptt.Options{})
	for g := range flat {
		if !transformed[g].Equal(flat[g]) {
			fail("rank %d: SPTTForward's output differs from BaselineForward's", g)
		}
	}
}

// propSeeds is the tier-1 seed budget: within 2 s at GOMAXPROCS 2.
const propSeeds = 64

// TestSchedulesMatchOracles runs the property check over a fixed budget of
// drawn configurations. A failure prints the configuration;
// FuzzSchedulesMatchOracles explores further seeds.
func TestSchedulesMatchOracles(t *testing.T) {
	for seed := uint64(0); seed < propSeeds; seed++ {
		checkCase(t, seed)
	}
}

// FuzzSchedulesMatchOracles is the property check over the generator's
// seed (make fuzz-smoke).
func FuzzSchedulesMatchOracles(f *testing.F) {
	f.Add(uint64(propSeeds))
	f.Fuzz(func(t *testing.T, seed uint64) { checkCase(t, seed) })
}
