// Package workload generates serving request streams — the open-loop,
// ServeGen-style traffic models the cluster simulator consumes and the
// closed-loop key streams the in-process load generator draws from.
//
// An open-loop trace is a pure function of its Config: interarrival gaps are
// drawn from a Poisson, Gamma, or Weibull process (the three shapes ServeGen
// fits to production arrival data — Gamma/Weibull add the burstiness a pure
// Poisson model misses), request keys follow a zipf distribution over a
// fixed sample pool (hot items and returning users repeat), and each request
// is tagged with an SLO class from a configurable mix. Because generation is
// single-goroutine and seeded, the same Config yields an identical trace on
// every run and every GOMAXPROCS setting.
package workload

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"time"
)

// Dist enumerates the interarrival-time distributions.
type Dist int

// Supported arrival processes.
const (
	Poisson Dist = iota // exponential gaps (memoryless)
	Gamma               // shape < 1 bursty, > 1 regular
	Weibull             // heavy bursts at shape < 1
)

// String names the distribution.
func (d Dist) String() string {
	switch d {
	case Poisson:
		return "poisson"
	case Gamma:
		return "gamma"
	case Weibull:
		return "weibull"
	default:
		return fmt.Sprintf("Dist(%d)", int(d))
	}
}

// ParseDist maps a flag string to a Dist.
func ParseDist(s string) (Dist, error) {
	switch s {
	case "poisson":
		return Poisson, nil
	case "gamma":
		return Gamma, nil
	case "weibull":
		return Weibull, nil
	default:
		return 0, fmt.Errorf("workload: unknown arrival distribution %q", s)
	}
}

// Class is one SLO class of the request mix: a share of traffic with its own
// latency target and per-request candidate count (a ranking request scores
// Items candidates through the model, so Items scales its compute).
type Class struct {
	Name  string
	Share float64       // fraction of requests, normalized over all classes
	Items int           // candidate items per request (min 1)
	SLO   time.Duration // p99 latency target
}

// DefaultClasses is the standard two-class mix: lightweight lookups plus a
// heavier ranking class that scores a candidate slate per request.
func DefaultClasses() []Class {
	return []Class{
		{Name: "lite", Share: 0.8, Items: 1, SLO: time.Millisecond},
		{Name: "rank", Share: 0.2, Items: 8, SLO: 3 * time.Millisecond},
	}
}

// Config parameterizes one open-loop trace.
type Config struct {
	Arrival Dist
	// Rate is the mean arrival rate in requests/second.
	Rate float64
	// Shape is the Gamma/Weibull shape parameter; <= 0 defaults to 1, which
	// makes both collapse to the exponential (Poisson) process.
	Shape float64
	// Requests is the trace length.
	Requests int
	// Samples is the key-pool size; request keys are zipf-skewed over it.
	Samples int
	// ZipfS is the zipf skew (> 1); higher concentrates more traffic on the
	// hot head.
	ZipfS float64
	// Classes is the SLO-class mix; empty defaults to one "default" class
	// with Items 1 and a 1 ms SLO.
	Classes []Class
	Seed    uint64
}

// Request is one trace record: arrival time on the virtual clock, the sample
// key it asks about, its SLO class, and the candidate count.
type Request struct {
	Seq    int
	At     time.Duration
	Sample int
	Class  int
	Items  int
}

// Trace is a recorded request stream plus the class table needed to
// interpret per-request class indices.
type Trace struct {
	Classes  []Class
	Requests []Request
}

// Generate records a trace from the config. The result is deterministic in
// Config alone.
func Generate(cfg Config) *Trace {
	if cfg.Rate <= 0 {
		panic(fmt.Sprintf("workload: non-positive arrival rate %v", cfg.Rate))
	}
	if cfg.Samples < 1 {
		cfg.Samples = 1
	}
	if cfg.ZipfS <= 1 {
		cfg.ZipfS = 1.2
	}
	if cfg.Shape <= 0 {
		cfg.Shape = 1
	}
	classes := slices.Clone(cfg.Classes) // normalized below; the caller's stays as given
	if len(classes) == 0 {
		classes = []Class{{Name: "default", Share: 1, Items: 1, SLO: time.Millisecond}}
	}
	var shareSum float64
	for i, c := range classes {
		if c.Share < 0 {
			panic(fmt.Sprintf("workload: class %q has negative share", c.Name))
		}
		if c.Items < 1 {
			classes[i].Items = 1
		}
		shareSum += c.Share
	}
	if shareSum <= 0 {
		panic("workload: class shares sum to zero")
	}

	rng := rand.New(rand.NewSource(int64(cfg.Seed)*6364136223846793005 + 1442695040888963407))
	var zipf *rand.Zipf
	if cfg.Samples > 1 {
		zipf = rand.NewZipf(rng, cfg.ZipfS, 1, uint64(cfg.Samples-1))
	}

	tr := &Trace{
		Classes:  classes,
		Requests: make([]Request, 0, cfg.Requests),
	}
	var now float64 // seconds
	for i := 0; i < cfg.Requests; i++ {
		now += interarrival(rng, cfg.Arrival, cfg.Rate, cfg.Shape)
		sample := 0
		if zipf != nil {
			sample = int(zipf.Uint64())
		}
		// Class pick by cumulative share; the draw is consumed even for a
		// single class so adding classes never perturbs the arrival gaps.
		u := rng.Float64() * shareSum
		class := len(classes) - 1
		var acc float64
		for ci, c := range classes {
			acc += c.Share
			if u < acc {
				class = ci
				break
			}
		}
		tr.Requests = append(tr.Requests, Request{
			Seq:    i,
			At:     time.Duration(now * float64(time.Second)),
			Sample: sample,
			Class:  class,
			Items:  classes[class].Items,
		})
	}
	return tr
}

// interarrival draws one gap (seconds) with mean 1/rate.
func interarrival(rng *rand.Rand, d Dist, rate, shape float64) float64 {
	switch d {
	case Gamma:
		// Gamma(k, θ) with kθ = 1/rate.
		return gammaSample(rng, shape) / (shape * rate)
	case Weibull:
		// Weibull(k, λ) with λΓ(1+1/k) = 1/rate; inverse-transform sample.
		scale := 1 / (rate * math.Gamma(1+1/shape))
		u := rng.Float64()
		for u == 0 {
			u = rng.Float64()
		}
		return scale * math.Pow(-math.Log(u), 1/shape)
	default: // Poisson
		return rng.ExpFloat64() / rate
	}
}

// gammaSample draws Gamma(k, 1) by Marsaglia–Tsang squeeze, boosting k < 1
// through the Gamma(k+1) identity.
func gammaSample(rng *rand.Rand, k float64) float64 {
	if k < 1 {
		u := rng.Float64()
		for u == 0 {
			u = rng.Float64()
		}
		return gammaSample(rng, k+1) * math.Pow(u, 1/k)
	}
	d := k - 1.0/3
	c := 1 / math.Sqrt(9*d)
	for {
		x := rng.NormFloat64()
		v := 1 + float64(c*x)
		if v <= 0 {
			continue
		}
		v = float64(v * v * v)
		u := rng.Float64()
		if u < 1-float64(0.0331*x*x*x*x) {
			return d * v
		}
		if math.Log(u) < float64(0.5*x*x)+float64(d*(1-v+math.Log(v))) {
			return d * v
		}
	}
}

// Percentile reads the q-quantile from sorted latencies with the ceil
// nearest-rank convention: the smallest sample with at least a q fraction of
// the distribution at or below it. Floor-indexing into n-1 would round tail
// percentiles down a rank and underestimate them at small n.
func Percentile(sorted []time.Duration, q float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[Rank(q, len(sorted))]
}

// Rank is the index Percentile reads the q-quantile at in n > 0 sorted
// samples, so a caller that selects rather than sorts reads the same one.
func Rank(q float64, n int) int {
	return min(max(int(math.Ceil(q*float64(n))), 1), n) - 1
}

// KeyStream is the closed-loop generator's per-client key source: a
// zipf-skewed stream over n samples, deterministic in (seed, s, n). It
// reproduces the stream the serve load generator has always drawn, so
// rebuilding the closed loop on workload changed no request sequences.
type KeyStream struct {
	zipf *rand.Zipf
}

// NewKeyStream builds a stream over keys [0, n) with zipf skew s (> 1).
func NewKeyStream(seed int64, s float64, n int) *KeyStream {
	if n < 1 {
		panic(fmt.Sprintf("workload: key stream over %d samples", n))
	}
	if n == 1 {
		return &KeyStream{}
	}
	rng := rand.New(rand.NewSource(seed))
	return &KeyStream{zipf: rand.NewZipf(rng, s, 1, uint64(n-1))}
}

// Next returns the stream's next key.
func (k *KeyStream) Next() int {
	if k.zipf == nil {
		return 0
	}
	return int(k.zipf.Uint64())
}
