package quant

import (
	"math"
	"testing"

	"dmt/internal/tensor"
)

// gradientLike fills a tensor the way an over-arch gradient looks on the
// wire: magnitudes log-uniform over 1e-7…1e-4 with random signs, so most
// elements land below the smallest normal half (2^-14 ≈ 6.1e-5) and travel
// as subnormals — the case the trainer's receive side actually decodes and
// a U(−1, 1) payload never produces.
func gradientLike(r *tensor.RNG, shape ...int) *tensor.Tensor {
	t := tensor.RandUniform(r, -7, -4, shape...)
	sign := tensor.RandUniform(r, -1, 1, shape...).Data()
	for i, e := range t.Data() {
		t.Data()[i] = float32(math.Copysign(math.Pow(10, float64(e)), float64(sign[i])))
	}
	return t
}

// BenchmarkHotpathFloat16Encode times the fp16 encode alone on the
// gradient-like payload, in fp32 MB/s: the scalar reference loops against
// the codec as the trainer and SPTT run it, EncodeTo and EncodeResidualTo
// into a reused payload, whose encoders (encodeHalves and
// encodeHalvesResidual) run 8 lanes at a time where the CPU has AVX2.
func BenchmarkHotpathFloat16Encode(b *testing.B) {
	r := tensor.NewRNG(43)
	gt := gradientLike(r, 64, 257)
	rt := tensor.New(64, 257)
	grad, res := gt.Data(), rt.Data()
	h := make([]uint16, len(grad))
	var e Encoded
	EncodeTo(&e, FP16, gt) // size the buffers
	for _, side := range []struct {
		name          string
		encode        func(h []uint16, v []float32)
		encodeResidue func(h []uint16, g, r []float32)
	}{
		{"scalar", encodeHalvesRef, encodeHalvesResidualRef},
		{"vector",
			func([]uint16, []float32) { EncodeTo(&e, FP16, gt) },
			func([]uint16, []float32, []float32) { EncodeResidualTo(&e, FP16, gt, rt) }},
	} {
		b.Run(side.name+"/encode", func(b *testing.B) {
			b.SetBytes(int64(4 * len(grad)))
			for i := 0; i < b.N; i++ {
				side.encode(h, grad)
			}
		})
		b.Run(side.name+"/residual", func(b *testing.B) {
			b.SetBytes(int64(4 * len(grad)))
			for i := 0; i < b.N; i++ {
				side.encodeResidue(h, grad, res)
			}
		})
	}
}

// BenchmarkHotpathCodec measures the per-bucket wire path of compressed
// collectives. fused/unfused: the quantize+encode+error-feedback pass,
// EncodeResidualTo into a reused payload as the trainer runs it, against
// the clone/add/encode/decode/sub composition it replaces — run with
// -benchmem (`make bench-hotpath`), the headline is the allocs/op column;
// fused/gradient is the fused pass, in fp32 MB/s, on the
// gradient-like payload the trainer actually encodes (with its own
// residual), where most halves are subnormal. decode/addto: the receive
// side (DecodeInto, AddTo) in fp32 MB/s, on the uniform payload and on a
// gradient-like one.
func BenchmarkHotpathCodec(b *testing.B) {
	r := tensor.NewRNG(42)
	g := tensor.RandUniform(r, -1, 1, 64, 257) // odd width keeps INT4 honest
	res := tensor.RandUniform(r, -0.01, 0.01, 64, 257)
	grad := gradientLike(r, 64, 257)
	subnormal := 0
	for _, v := range grad.Data() {
		if h := ToFloat16(v) & 0x7fff; h != 0 && h < 0x0400 {
			subnormal++
		}
	}
	if 10*subnormal < 6*grad.Len() {
		b.Fatalf("gradient-like payload has %d of %d subnormal halves, want >= 60%%", subnormal, grad.Len())
	}
	dst := tensor.New(64, 257)
	for _, s := range []Scheme{FP16, INT8, INT4} {
		for _, p := range []struct {
			name   string
			x, res *tensor.Tensor
		}{{"fused", g, res}, {"fused/gradient", grad, tensor.New(64, 257)}} {
			b.Run(s.String()+"/"+p.name, func(b *testing.B) {
				var e Encoded
				EncodeResidualTo(&e, s, p.x, p.res) // size the buffers
				b.ReportAllocs()
				b.SetBytes(int64(4 * p.x.Len()))
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					EncodeResidualTo(&e, s, p.x, p.res)
				}
			})
		}
		b.Run(s.String()+"/unfused", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				unfusedEncodeResidual(s, g, res)
			}
		})
		for _, p := range []struct {
			name string
			x    *tensor.Tensor
		}{{"uniform", g}, {"gradient", grad}} {
			e := Encode(s, p.x)
			b.Run(s.String()+"/decode/"+p.name, func(b *testing.B) {
				b.SetBytes(int64(4 * dst.Len()))
				for i := 0; i < b.N; i++ {
					e.DecodeInto(dst)
				}
			})
			b.Run(s.String()+"/addto/"+p.name, func(b *testing.B) {
				b.SetBytes(int64(4 * dst.Len()))
				for i := 0; i < b.N; i++ {
					e.AddTo(dst)
				}
			})
		}
	}
}
