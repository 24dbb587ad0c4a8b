package tensor

import (
	"fmt"
	"testing"
)

type gemmShape struct{ m, k, n int }

// Over-arch layer shapes: the batched activations (m = batch) against the
// wide MLP weight matrices the paper's dense tower is made of.
var hotpathShapes = []gemmShape{
	{256, 512, 512},
	{512, 512, 512},
}

// trainDenseShapes is each entry point's dominant shape in the benchmark's
// train_dense step, (m, k, n) as gemmKernels reads it: the forward
// x·Wᵀ, the input gradient dY·W and the weight gradient dYᵀ·X of one
// over-arch Linear at the local batch of 64.
var trainDenseShapes = map[string]gemmShape{
	"MatMulBT": {64, 152, 256},
	"MatMul":   {64, 128, 256},
	"MatMulAT": {256, 64, 152},
}

// trainDenseLogit is train_dense's width-1 logit layer, x·wᵀ for the last
// top-MLP activation x (64, 128): all of its output is dotEdge's.
var trainDenseLogit = gemmShape{64, 128, 1}

// trainDensePairwise is train_dense's interaction input, (B, F, N) =
// (m, k, n): 17 feature vectors of 16 per sample at the local batch.
var trainDensePairwise = gemmShape{64, 17, 16}

// gemmKernelNamed returns the gemmKernels entry for an entry point.
func gemmKernelNamed(tb testing.TB, name string) gemmKernel {
	for _, kn := range gemmKernels {
		if kn.name == name {
			return kn
		}
	}
	tb.Fatalf("no GEMM kernel %q", name)
	return gemmKernel{}
}

// BenchmarkHotpathMatMul times the MatMul entry point (the vector kernel
// where the CPU has it) against its scalar row routine, at over-arch
// shapes and at train_dense's (`make bench-hotpath`), there also with
// every other A element exactly 0, as a ReLU-gated gradient has them
// (",sparse"): every term counts, so the vector kernel runs it at the dense
// speed, and the scalar routine shows what skipping zero terms would save.
// The table in the README's hot-path section comes from this run.
func BenchmarkHotpathMatMul(b *testing.B) {
	benchmarkGEMM(b, gemmKernelNamed(b, "MatMul"))
}

// BenchmarkHotpathMatMulBT is the Linear-layer layout (weights stored
// (out, in)): the forward and serve predict path's kernel, here also at
// the width-1 logit layer's shape, where every output is an edge column.
func BenchmarkHotpathMatMulBT(b *testing.B) {
	benchmarkGEMM(b, gemmKernelNamed(b, "MatMulBT"))
}

// BenchmarkHotpathMatMulAT is the weight-gradient layout, with the same
// ReLU-sparse row as MatMul's: its A is the layer's output gradient dY.
func BenchmarkHotpathMatMulAT(b *testing.B) {
	benchmarkGEMM(b, gemmKernelNamed(b, "MatMulAT"))
}

// benchmarkGEMM runs kn's rows and entry sides at its train_dense shape,
// then, for MatMul and MatMulAT, at that shape with A's even elements
// zeroed, then at the over-arch shapes (and, for MatMulBT, the logit
// layer's).
func benchmarkGEMM(b *testing.B, kn gemmKernel) {
	type gemmCase struct {
		gemmShape
		sparse bool
	}
	cases := []gemmCase{{trainDenseShapes[kn.name], false}}
	if kn.name != "MatMulBT" {
		cases = append(cases, gemmCase{trainDenseShapes[kn.name], true})
	}
	for _, sh := range hotpathShapes {
		cases = append(cases, gemmCase{sh, false})
	}
	if kn.name == "MatMulBT" {
		cases = append(cases, gemmCase{trainDenseLogit, false})
	}
	for _, side := range []struct {
		name string
		run  func(x, y *Tensor) *Tensor
	}{{"rows", kn.ref}, {"entry", kn.entry}} {
		for _, c := range cases {
			name := fmt.Sprintf("%s/m=%d,k=%d,n=%d", side.name, c.m, c.k, c.n)
			if c.sparse {
				name += ",sparse"
			}
			b.Run(name, func(b *testing.B) {
				r := NewRNG(1)
				xs, ys := kn.shapes(c.m, c.k, c.n)
				x, y := RandUniform(r, -1, 1, xs...), RandUniform(r, -1, 1, ys...)
				for i := 0; c.sparse && i < len(x.data); i += 2 {
					x.data[i] = 0
				}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					sink = side.run(x, y)
				}
			})
		}
	}
}
