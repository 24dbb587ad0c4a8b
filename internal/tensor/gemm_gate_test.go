//go:build benchgate

package tensor

import (
	"reflect"
	"testing"
	"time"
)

// TestHotpathMatMulSpeedup is the bench-hotpath-check gate: at over-arch
// shapes the MatMul and MatMulBT entry points, which run the AVX2 row
// routines init selected, must beat their scalar row routines by at least
// 1.5x. Both sides run on the calling goroutine, so the vector kernel is the
// only source of the speedup, and a CPU without one skips: there the entry
// points run the scalar routines and the gate would compare them with
// themselves. Timing takes the best of several runs per side to shrug off
// scheduler noise. It is a wall-clock speed assertion, so it lives behind
// the benchgate build tag that only `make bench-hotpath-check` passes: a
// plain `go test ./...` (tier-1) never compiles it, and other packages
// competing for the cores cannot fail it.
func TestHotpathMatMulSpeedup(t *testing.T) {
	if reflect.ValueOf(mulRows).Pointer() == reflect.ValueOf(matMulRows).Pointer() {
		t.Skip("no vector row routine selected: the entry points run the scalar routines")
	}
	const m, k, n = 512, 512, 512
	bestOf := func(trials int, run func(x, y *Tensor) *Tensor, x, y *Tensor) time.Duration {
		run(x, y) // warmup
		best := time.Duration(1<<63 - 1)
		for i := 0; i < trials; i++ {
			start := time.Now()
			run(x, y)
			if d := time.Since(start); d < best {
				best = d
			}
		}
		return best
	}
	for _, name := range []string{"MatMul", "MatMulBT"} {
		kn := gemmKernelNamed(t, name)
		r := NewRNG(1)
		xs, ys := kn.shapes(m, k, n)
		x, y := RandUniform(r, -1, 1, xs...), RandUniform(r, -1, 1, ys...)
		tr := bestOf(5, kn.ref, x, y)
		te := bestOf(5, kn.entry, x, y)
		speedup := float64(tr) / float64(te)
		t.Logf("%s (m=%d k=%d n=%d): scalar row routine %v, entry point %v — %.2fx",
			name, m, k, n, tr, te, speedup)
		if speedup < 1.5 {
			t.Errorf("%s: the entry point is only %.2fx its scalar row routine; the gate requires >= 1.5x",
				name, speedup)
		}
	}
}

// TestRowTailCostsOneSlab is the row-tail gate: at (r, 128) × (128, 128), a
// product whose last 1–3 rows the kernel pads to a 4-row slab costs within
// 1.25× of the product one slab longer — 1–3 rows against 4, 5–7 against 8
// — for both entry points that have a row tail, MatMulBTInto (serving's
// layers) and MatMul (MatMulAT's routine too). The two sides are timed in
// alternation, best of 15 runs each, so a slow spell of a shared host hits
// both.
func TestRowTailCostsOneSlab(t *testing.T) {
	if reflect.ValueOf(mulRows).Pointer() == reflect.ValueOf(matMulRows).Pointer() {
		t.Skip("no vector row routine selected: there is no kernel tail to time")
	}
	const k, n, reps = 128, 128, 1000
	r := NewRNG(3)
	w := RandUniform(r, -1, 1, k, n)
	entries := []struct {
		name string
		run  func(x *Tensor)
	}{
		{"MatMulBTInto", func(x *Tensor) { MatMulBTInto(New(x.Dim(0), n), x, w) }},
		{"MatMul", func(x *Tensor) { MatMul(x, w) }},
	}
	for _, e := range entries {
		for rows := 1; rows <= 7; rows++ {
			if rows == 4 {
				continue
			}
			ref := (rows + 3) &^ 3
			xs := [2]*Tensor{RandUniform(r, -1, 1, rows, k), RandUniform(r, -1, 1, ref, k)}
			best := [2]time.Duration{1<<63 - 1, 1<<63 - 1}
			for trial := 0; trial < 15; trial++ {
				for side, x := range xs {
					start := time.Now()
					for range reps {
						e.run(x)
					}
					best[side] = min(best[side], time.Since(start))
				}
			}
			ratio := float64(best[0]) / float64(best[1])
			t.Logf("%s: %d rows %v, %d rows %v — %.2fx", e.name, rows, best[0]/reps, ref, best[1]/reps, ratio)
			if ratio > 1.25 {
				t.Errorf("%s: %d rows cost %.2fx the %d-row product; the gate allows 1.25x", e.name, rows, ratio, ref)
			}
		}
	}
}
