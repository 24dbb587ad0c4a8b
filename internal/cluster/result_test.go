package cluster

import (
	"bytes"
	"math/rand/v2"
	"slices"
	"testing"
	"time"

	"dmt/internal/workload"
)

// checkPercentiles holds percentiles(lats) to workload.Percentile on a
// sorted copy at each quantile result reads, and to leaving lats a
// permutation of itself.
func checkPercentiles(t *testing.T, lats []time.Duration) {
	t.Helper()
	sorted := slices.Sorted(slices.Values(lats))
	work := slices.Clone(lats)
	p50, p95, p99 := percentiles(work)
	for _, c := range []struct {
		q         float64
		got, want time.Duration
	}{
		{0.50, p50, workload.Percentile(sorted, 0.50)},
		{0.95, p95, workload.Percentile(sorted, 0.95)},
		{0.99, p99, workload.Percentile(sorted, 0.99)},
	} {
		if c.got != c.want {
			t.Fatalf("n=%d: p%v = %v, sorted copy reads %v", len(lats), c.q*100, c.got, c.want)
		}
	}
	if slices.Sort(work); !slices.Equal(work, sorted) {
		t.Fatalf("n=%d: percentiles changed the latencies, not just their order", len(lats))
	}
}

// fuzzLatencies decodes a fuzz input: each byte after the first is one
// latency, taken modulo first+1, so the first byte runs the input from all
// equal (0) to all distinct (255).
func fuzzLatencies(data []byte) []time.Duration {
	if len(data) == 0 {
		return nil
	}
	lats := make([]time.Duration, len(data)-1)
	for i, b := range data[1:] {
		lats[i] = time.Duration(int(b) % (int(data[0]) + 1))
	}
	return lats
}

// FuzzPercentiles holds the selection result() reads its percentiles by to
// sorting, over empty, one-element, all-equal and duplicate-heavy inputs.
func FuzzPercentiles(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{255, 7})
	f.Add(append([]byte{0}, bytes.Repeat([]byte{9}, 300)...))
	f.Add(append([]byte{2}, bytes.Repeat([]byte{5, 1, 0, 4, 2, 2}, 50)...))
	f.Add(append([]byte{255}, bytes.Repeat([]byte{200, 3}, 90)...))
	f.Fuzz(func(t *testing.T, data []byte) {
		checkPercentiles(t, fuzzLatencies(data))
	})
}

// TestPercentilesMatchSortedCopy runs the selection over the orders
// quickselect finds hardest (sorted, reversed, organ pipe, two values,
// all equal) and random ones, at sizes around its 16-element cutoff and up
// to 100 000.
func TestPercentilesMatchSortedCopy(t *testing.T) {
	rng := rand.New(rand.NewPCG(53, 2))
	for _, shape := range []struct {
		name string
		at   func(i, n int) time.Duration
	}{
		{"sorted", func(i, n int) time.Duration { return time.Duration(i) }},
		{"reversed", func(i, n int) time.Duration { return time.Duration(n - i) }},
		{"organ pipe", func(i, n int) time.Duration { return time.Duration(min(i, n-i)) }},
		{"two values", func(i, n int) time.Duration { return time.Duration(i % 2) }},
		{"all equal", func(i, n int) time.Duration { return 7 }},
		{"random", func(i, n int) time.Duration { return time.Duration(rng.IntN(n + 1)) }},
		{"few random", func(i, n int) time.Duration { return time.Duration(rng.IntN(3)) }},
	} {
		for _, n := range []int{0, 1, 2, 3, 15, 16, 17, 18, 33, 100, 101, 1000, 4099, 100_000} {
			lats := make([]time.Duration, n)
			for i := range lats {
				lats[i] = shape.at(i, n)
			}
			t.Run(shape.name, func(t *testing.T) { checkPercentiles(t, lats) })
		}
	}
}
