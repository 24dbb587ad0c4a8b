//go:build benchgate

package tensor

import (
	"runtime"
	"testing"
	"time"
)

// TestHotpathParallelMatMulSpeedup is the bench-hotpath-check gate: at
// over-arch shapes the parallel tiled backend must beat the serial kernel
// by at least 1.5x for MatMul and MatMulBT. Timing takes the best of
// several runs per backend to shrug off scheduler noise; single-core
// environments skip (there is nothing to fan out over). It is a wall-clock
// speed assertion, so it lives behind the benchgate build tag that only
// `make bench-hotpath-check` passes: a plain `go test ./...` (tier-1) never
// compiles it, and other packages competing for the cores cannot fail it.
func TestHotpathParallelMatMulSpeedup(t *testing.T) {
	if runtime.GOMAXPROCS(0) < 2 {
		t.Skipf("GOMAXPROCS=%d: parallel speedup needs at least 2 procs", runtime.GOMAXPROCS(0))
	}
	const m, k, n = 512, 512, 512
	r := NewRNG(1)
	a := RandUniform(r, -1, 1, m, k)
	w := RandUniform(r, -1, 1, k, n)
	wt := RandUniform(r, -1, 1, n, k)
	serial, parallel := kernelPairs(t)
	out := New(m, n)

	bestOf := func(trials int, kr Kernel, op func(kr Kernel)) time.Duration {
		op(kr) // warmup
		best := time.Duration(1<<63 - 1)
		for i := 0; i < trials; i++ {
			out.Zero()
			start := time.Now()
			op(kr)
			if d := time.Since(start); d < best {
				best = d
			}
		}
		return best
	}
	check := func(name string, op func(kr Kernel)) {
		ts := bestOf(5, serial, op)
		tp := bestOf(5, parallel, op)
		speedup := float64(ts) / float64(tp)
		t.Logf("%s (m=%d k=%d n=%d, %d procs): serial %v, parallel %v — %.2fx",
			name, m, k, n, runtime.GOMAXPROCS(0), ts, tp, speedup)
		if speedup < 1.5 {
			t.Errorf("%s: parallel backend is only %.2fx the serial kernel; the gate requires >= 1.5x",
				name, speedup)
		}
	}
	check("MatMul", func(kr Kernel) { kr.MatMul(a.Data(), w.Data(), out.Data(), m, k, n) })
	check("MatMulBT", func(kr Kernel) { kr.MatMulBT(a.Data(), wt.Data(), out.Data(), m, k, n) })
}
