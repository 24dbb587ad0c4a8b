package tensor

import (
	"fmt"
	"testing"
)

// overArchLen is the size of train_dense's widest over-arch weight, the
// (256, 152) first top-MLP layer: the length one Adam update and one
// gradient accumulation per source rank run over.
const overArchLen = 256 * 152

// BenchmarkHotpathAdam times one Adam step over an over-arch weight: the
// vector kernel the CPU selected (AdamUpdate) against the scalar reference,
// in MB/s of the four float32 arrays it streams.
func BenchmarkHotpathAdam(b *testing.B) {
	r := NewRNG(1)
	w, g := RandUniform(r, -1, 1, overArchLen).data, RandUniform(r, -1e-3, 1e-3, overArchLen).data
	m, v := New(overArchLen).data, New(overArchLen).data
	s := AdamStep{LR: 1e-3, Beta1: 0.9, Beta2: 0.999, Eps: 1e-8, BC1: 0.1, BC2: 0.001}
	for _, side := range []struct {
		name string
		run  func(s AdamStep, w, g, m, v []float32)
	}{{"scalar", adamRef}, {"vector", AdamUpdate}} {
		b.Run(side.name, func(b *testing.B) {
			b.SetBytes(4 * 4 * overArchLen)
			for i := 0; i < b.N; i++ {
				side.run(s, w, g, m, v)
			}
		})
	}
}

// BenchmarkHotpathAddInPlace times one source rank's share of a gradient
// bucket's reduction over an over-arch weight: AddInPlace (the vector
// routine the CPU selected) against the scalar reference, in MB/s of dst.
func BenchmarkHotpathAddInPlace(b *testing.B) {
	r := NewRNG(2)
	dst, src := RandUniform(r, -1, 1, overArchLen), RandUniform(r, -1, 1, overArchLen)
	for _, side := range []struct {
		name string
		run  func(d, s *Tensor)
	}{{"scalar", func(d, s *Tensor) { addRef(d.data, s.data) }}, {"vector", AddInPlace}} {
		b.Run(side.name, func(b *testing.B) {
			b.SetBytes(4 * overArchLen)
			for i := 0; i < b.N; i++ {
				side.run(dst, src)
			}
		})
	}
}

// BenchmarkHotpathReLUGate times the ReLU gate on one over-arch activation,
// train_dense's (64, 256) first top-MLP output, both ways it runs: the
// backward gate (dy, y) and the forward ReLU in place; the vector routine
// the CPU selected against the scalar reference, in MB/s of d.
func BenchmarkHotpathReLUGate(b *testing.B) {
	const n = 64 * 256
	r := NewRNG(3)
	dy, y := RandUniform(r, -1, 1, n), RandUniform(r, -1, 1, n)
	x := RandUniform(r, -1, 1, n)
	for _, side := range []struct {
		name string
		run  func(d, y *Tensor)
	}{{"scalar", func(d, y *Tensor) { gateRef(d.data, y.data) }}, {"vector", ReLUGate}} {
		b.Run(side.name+"/backward", func(b *testing.B) {
			b.SetBytes(4 * n)
			for i := 0; i < b.N; i++ {
				side.run(dy, y)
			}
		})
		b.Run(side.name+"/forward", func(b *testing.B) {
			b.SetBytes(4 * n)
			for i := 0; i < b.N; i++ {
				side.run(x, x)
			}
		})
	}
}

// BenchmarkHotpathPairwiseUpperGrad times the interaction backward at
// train_dense's (64, 17, 16) input: Arena.PairwiseUpperGrad (the vector routine
// the CPU selected) against the scalar loop over the same samples, in
// MB/s of the dx it forms.
func BenchmarkHotpathPairwiseUpperGrad(b *testing.B) {
	sh := trainDensePairwise
	bs, f, n := sh.m, sh.k, sh.n
	ow := f * (f - 1) / 2
	r := NewRNG(4)
	x, dy := RandUniform(r, -1, 1, bs, f, n), RandUniform(r, -1, 1, bs, ow)
	scalar := func(x, dy *Tensor) *Tensor {
		dx := New(bs, f, n)
		for s := range bs {
			pairGradRef(dx.data[s*f*n:(s+1)*f*n], x.data[s*f*n:(s+1)*f*n], dy.data[s*ow:(s+1)*ow], f, n)
		}
		return dx
	}
	for _, side := range []struct {
		name string
		run  func(x, dy *Tensor) *Tensor
	}{{"scalar", scalar}, {"vector", func(x, dy *Tensor) *Tensor { return (*Arena)(nil).PairwiseUpperGrad(x, dy, 0) }}} {
		b.Run(side.name, func(b *testing.B) {
			b.SetBytes(int64(4 * bs * f * n))
			for i := 0; i < b.N; i++ {
				side.run(x, dy)
			}
		})
	}
}

// BenchmarkHotpathPairwiseUpper times the interaction forward at the
// serving batch's (32, 9, 128) input, the 9-vector global interaction of
// the benchmark's DMT-DLRM at batch 32, and at train_dense's (64, 17, 16):
// PairwiseUpperIntoCols (the routine the CPU selected) against the scalar
// loop, in MB/s of the x it reads.
func BenchmarkHotpathPairwiseUpper(b *testing.B) {
	r := NewRNG(5)
	for _, sh := range []gemmShape{{32, 9, 128}, trainDensePairwise} {
		bs, f, n := sh.m, sh.k, sh.n
		x, out := RandUniform(r, -1, 1, bs, f, n), New(bs, f*(f-1)/2)
		for _, side := range []struct {
			name string
			run  func(out, x *Tensor)
		}{
			{"scalar", func(out, x *Tensor) { pairDotRef(x.data, out.data, bs, f, n, f*(f-1)/2) }},
			{"vector", func(out, x *Tensor) { PairwiseUpperIntoCols(out, 0, x) }},
		} {
			b.Run(fmt.Sprintf("%s/b=%d,f=%d,n=%d", side.name, bs, f, n), func(b *testing.B) {
				b.SetBytes(int64(4 * bs * f * n))
				for i := 0; i < b.N; i++ {
					side.run(out, x)
				}
			})
		}
	}
}
