//go:build benchgate

package tensor

import (
	"runtime"
	"testing"
	"time"
)

// TestHotpathParallelMatMulSpeedup is the bench-hotpath-check gate: at
// over-arch shapes the tiled vector MatMul and MatMulBT entry points (the
// AVX2 kernel fanned out over tiles; the scalar routines on CPUs without
// it) must beat their scalar row routines on one goroutine by at least
// 1.5x. Timing takes the best of several runs per side to shrug off
// scheduler noise; single-core environments skip, since on a CPU without
// AVX2 only the fan-out gives the speedup. It is a wall-clock
// speed assertion, so it lives behind the benchgate build tag that only
// `make bench-hotpath-check` passes: a plain `go test ./...` (tier-1) never
// compiles it, and other packages competing for the cores cannot fail it.
func TestHotpathParallelMatMulSpeedup(t *testing.T) {
	if runtime.GOMAXPROCS(0) < 2 {
		t.Skipf("GOMAXPROCS=%d: the tiled speedup needs at least 2 procs", runtime.GOMAXPROCS(0))
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
		kn := tiledKernelNamed(t, name)
		r := NewRNG(1)
		xs, ys := kn.shapes(m, k, n)
		x, y := RandUniform(r, -1, 1, xs...), RandUniform(r, -1, 1, ys...)
		tr := bestOf(5, kn.ref, x, y)
		tt := bestOf(5, kn.tiled, x, y)
		speedup := float64(tr) / float64(tt)
		t.Logf("%s (m=%d k=%d n=%d, %d procs): row routine %v, tiled %v — %.2fx",
			name, m, k, n, runtime.GOMAXPROCS(0), tr, tt, speedup)
		if speedup < 1.5 {
			t.Errorf("%s: the tiled entry point is only %.2fx its row routine; the gate requires >= 1.5x",
				name, speedup)
		}
	}
}
