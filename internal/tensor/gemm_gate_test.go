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
