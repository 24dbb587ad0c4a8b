package tensor

import (
	"fmt"
	"testing"
)

// Over-arch layer shapes: the batched activations (m = batch) against the
// wide MLP weight matrices the paper's dense tower is made of.
var hotpathShapes = []struct{ m, k, n int }{
	{256, 512, 512},
	{512, 512, 512},
}

// tiledKernelNamed returns the tiledKernels entry for an entry point.
func tiledKernelNamed(tb testing.TB, name string) tiledKernel {
	for _, kn := range tiledKernels {
		if kn.name == name {
			return kn
		}
	}
	tb.Fatalf("no tiled kernel %q", name)
	return tiledKernel{}
}

// BenchmarkHotpathMatMul times the tiled MatMul entry point against its row
// routine on one goroutine at over-arch shapes (`make bench-hotpath`); the
// before/after table in the README's hot-path section comes from this run.
func BenchmarkHotpathMatMul(b *testing.B) {
	benchmarkTiled(b, tiledKernelNamed(b, "MatMul"))
}

// BenchmarkHotpathMatMulBT is the Linear-layer layout (weights stored
// (out, in)): the serve predict path's kernel.
func BenchmarkHotpathMatMulBT(b *testing.B) {
	benchmarkTiled(b, tiledKernelNamed(b, "MatMulBT"))
}

func benchmarkTiled(b *testing.B, kn tiledKernel) {
	for _, side := range []struct {
		name string
		run  func(x, y *Tensor) *Tensor
	}{{"rows", kn.ref}, {"tiled", kn.tiled}} {
		for _, sh := range hotpathShapes {
			b.Run(fmt.Sprintf("%s/m=%d,k=%d,n=%d", side.name, sh.m, sh.k, sh.n), func(b *testing.B) {
				r := NewRNG(1)
				xs, ys := kn.shapes(sh.m, sh.k, sh.n)
				x, y := RandUniform(r, -1, 1, xs...), RandUniform(r, -1, 1, ys...)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					side.run(x, y)
				}
			})
		}
	}
}
