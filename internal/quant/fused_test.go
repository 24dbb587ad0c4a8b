package quant

import (
	"math"
	"testing"

	"dmt/internal/tensor"
)

// unfusedEncodeResidual is the reference composition EncodeResidual is
// pinned against: clone, add the residual, encode, subtract the round trip.
// It mutates r exactly like the fused form (r = v − decode(encode(v))).
func unfusedEncodeResidual(s Scheme, g, r *tensor.Tensor) *Encoded {
	v := g.Clone()
	tensor.AddInPlace(v, r)
	e := Encode(s, v)
	var dec *tensor.Tensor
	if s == None {
		dec = v
	} else {
		dec = e.Decode()
	}
	r.CopyFrom(tensor.Sub(v, dec))
	return e
}

// bitsEqual compares tensors by float32 bit pattern, so NaNs (which == says
// are unequal to themselves) still count as identical when their bits are.
func bitsEqual(a, b *tensor.Tensor) bool {
	if a.Len() != b.Len() {
		return false
	}
	for i, v := range a.Data() {
		if math.Float32bits(v) != math.Float32bits(b.Data()[i]) {
			return false
		}
	}
	return true
}

// fusedCases are the geometries and payloads the fused/unfused equivalence
// is checked over: odd row widths (which exercise INT4's padded last nibble
// per row boundary in the global element order), 1-D tensors (whole-tensor
// scale), all-zero rows (skipped: scale 0), an Inf row (also skipped), NaN
// elements, negative zeros, and subnormal-scale magnitudes.
func fusedCases() []*tensor.Tensor {
	inf := float32(math.Inf(1))
	nan := float32(math.NaN())
	negZero := math.Float32frombits(0x80000000)
	r := tensor.NewRNG(99)
	return []*tensor.Tensor{
		tensor.RandUniform(r, -2, 2, 4, 8),
		tensor.RandUniform(r, -1, 1, 3, 5), // odd width
		tensor.RandUniform(r, -1e3, 1e3, 7),
		tensor.FromSlice([]float32{0, 0, 0, 0, 0, 0}, 2, 3), // all rows skipped
		tensor.FromSlice([]float32{1, -2, 3, 0, 0, 0, inf, 2, -inf}, 3, 3),
		tensor.FromSlice([]float32{nan, 1, -1, negZero, 0.5, nan}, 2, 3),
		tensor.FromSlice([]float32{1e-38, -1e-38, 2e-38}, 1, 3),         // subnormal scales
		tensor.FromSlice([]float32{65504, -65504, 70000, -70000, 1}, 5), // fp16 saturation
		withSpecials(tensor.RandUniform(r, -1e-4, 1e-4, 3, 37)),         // vector blocks and a tail per row
	}
}

// withSpecials overwrites every fifth element of t with a special (NaN, ±Inf,
// −0, a float32 subnormal, a value past the half range, the largest half and
// the smallest normal half) and returns t.
func withSpecials(t *tensor.Tensor) *tensor.Tensor {
	specials := []float32{
		float32(math.NaN()), float32(math.Inf(1)), float32(math.Inf(-1)),
		math.Float32frombits(0x80000000), 1e-40, 70000, 65504, 0x1p-14,
	}
	for i := 0; i < t.Len(); i += 5 {
		t.Data()[i] = specials[i/5%len(specials)]
	}
	return t
}

// TestFusedEncodeResidualMatchesUnfused pins the fused quantize+encode+
// error-feedback pass bitwise against the unfused composition, for every
// scheme and case: identical wire payloads (as seen by a receiver's Decode)
// and identical residuals — including NaN bit patterns.
func TestFusedEncodeResidualMatchesUnfused(t *testing.T) {
	for _, s := range Schemes() {
		for ci, x := range fusedCases() {
			r := tensor.NewRNG(uint64(7 + ci))
			// A nonzero residual so the g+r add is actually exercised.
			resF := tensor.RandUniform(r, -0.01, 0.01, x.Shape()...)
			resU := resF.Clone()
			g := x.Clone()

			ef := EncodeResidual(s, g, resF)
			eu := unfusedEncodeResidual(s, x, resU)

			if !bitsEqual(g, x) {
				t.Fatalf("%s case %d: EncodeResidual mutated the gradient", s, ci)
			}
			if !bitsEqual(resF, resU) {
				t.Fatalf("%s case %d: fused residual diverged from unfused", s, ci)
			}
			if !bitsEqual(ef.Decode(), eu.Decode()) {
				t.Fatalf("%s case %d: fused wire payload decodes differently", s, ci)
			}
			if ef.WireBytes() != eu.WireBytes() {
				t.Fatalf("%s case %d: fused WireBytes %d != unfused %d",
					s, ci, ef.WireBytes(), eu.WireBytes())
			}
		}
	}
}

// TestDecodeIntoAndAddToMatchUnfused pins the fused receiver paths bitwise
// against Decode: DecodeInto must equal the decoded tensor, and AddTo must
// equal AddInPlace with it — including the += 0 of skipped rows, which
// normalizes a −0 in the destination to +0 exactly like the unfused add.
func TestDecodeIntoAndAddToMatchUnfused(t *testing.T) {
	negZero := math.Float32frombits(0x80000000)
	for _, s := range Schemes() {
		if s == None {
			continue // by-reference; covered by the codec tests
		}
		for ci, x := range fusedCases() {
			e := Encode(s, x)
			want := e.Decode()

			into := tensor.New(x.Shape()...)
			for i := range into.Data() {
				into.Data()[i] = 42 // stale contents must be overwritten
			}
			e.DecodeInto(into)
			if !bitsEqual(into, want) {
				t.Fatalf("%s case %d: DecodeInto != Decode", s, ci)
			}

			r := tensor.NewRNG(uint64(31 + ci))
			acc := tensor.RandUniform(r, -1, 1, x.Shape()...)
			acc.Data()[0] = negZero
			ref := acc.Clone()
			e.AddTo(acc)
			tensor.AddInPlace(ref, want)
			if !bitsEqual(acc, ref) {
				t.Fatalf("%s case %d: AddTo != AddInPlace(Decode)", s, ci)
			}
		}
	}
}

// TestEncodeResidualNone checks the uncompressed fused path: the receiver
// sees exactly g + r and the residual ends at v − v (zero, or NaN where the
// sum overflowed to ±Inf — matching the unfused Sub of identical tensors).
func TestEncodeResidualNone(t *testing.T) {
	g := tensor.FromSlice([]float32{1, -2, 3.5, float32(math.Inf(1))}, 4)
	res := tensor.FromSlice([]float32{0.25, 0.25, -0.5, 0}, 4)
	e := EncodeResidual(None, g, res)
	want := []float32{1.25, -1.75, 3, float32(math.Inf(1))}
	for i, v := range e.Decode().Data() {
		if math.Float32bits(v) != math.Float32bits(want[i]) {
			t.Fatalf("payload[%d] = %v, want %v", i, v, want[i])
		}
	}
	for i, v := range res.Data()[:3] {
		if math.Float32bits(v) != 0 {
			t.Fatalf("residual[%d] = %v, want +0", i, v)
		}
	}
	if rv := res.Data()[3]; rv == rv {
		t.Fatalf("residual[3] = %v, want NaN (Inf − Inf)", rv)
	}
}

// FuzzFusedCodec drives the fused paths over arbitrary rows — including
// non-finite values — and requires bit-identical behavior to the unfused
// composition for every scheme. The row cycles through the five values, and
// its length, 5 to 40, takes every residue mod 8, so the vector encoders
// run whole blocks and a scalar tail; odd lengths keep INT4 on an odd width.
func FuzzFusedCodec(f *testing.F) {
	f.Add(float32(1), float32(-2), float32(3), float32(-4), float32(5), uint8(0))
	f.Add(float32(0), float32(0), float32(0), float32(0), float32(0), uint8(3))
	f.Add(float32(math.Inf(1)), float32(1), float32(math.NaN()), float32(-0.0), float32(1e-38), uint8(11))
	f.Add(float32(65504), float32(70000), float32(-70000), float32(1e-30), float32(1e30), uint8(30))
	f.Fuzz(func(t *testing.T, a, b, c, d, e float32, n uint8) {
		vals := []float32{a, b, c, d, e}
		size := 5 + int(n)%36
		xd, rd := make([]float32, size), make([]float32, size)
		for i := range xd {
			xd[i], rd[i] = vals[i%5], vals[(i+3)%5]
		}
		x, res0 := tensor.FromSlice(xd, size), tensor.FromSlice(rd, size)
		for _, s := range Schemes() {
			resF, resU := res0.Clone(), res0.Clone()
			ef := EncodeResidual(s, x, resF)
			eu := unfusedEncodeResidual(s, x.Clone(), resU)
			if !bitsEqual(resF, resU) {
				t.Fatalf("%s: fused residual diverged on %v", s, x.Data())
			}
			decF, decU := ef.Decode(), eu.Decode()
			if !bitsEqual(decF, decU) {
				t.Fatalf("%s: fused payload diverged on %v", s, x.Data())
			}

			if s == None {
				continue
			}
			into := tensor.New(size)
			ef.DecodeInto(into)
			if !bitsEqual(into, decF) {
				t.Fatalf("%s: DecodeInto diverged on %v", s, x.Data())
			}
			acc := res0.Clone()
			ref := res0.Clone()
			ef.AddTo(acc)
			tensor.AddInPlace(ref, decF)
			if !bitsEqual(acc, ref) {
				t.Fatalf("%s: AddTo diverged on %v", s, x.Data())
			}
		}
	})
}

// TestPooledEncodeAllocs pins the pooled hot loop at zero steady-state
// allocations: once the pool holds a buffer at the high-water mark, an
// Encode/Release or EncodeResidual/Release cycle — the per-bucket wire path
// of compressed collectives — reuses it outright, and the fused receiver
// paths write into caller storage.
func TestPooledEncodeAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates; strict zero-alloc pin only holds without it")
	}
	r := tensor.NewRNG(17)
	x := tensor.RandUniform(r, -1, 1, 16, 33) // odd width: nib path too
	res := tensor.RandUniform(r, -0.01, 0.01, 16, 33)
	dst := tensor.New(16, 33)
	for _, s := range []Scheme{FP16, INT8, INT4} {
		Encode(s, x).Release() // warm the pool
		if allocs := testing.AllocsPerRun(100, func() {
			e := Encode(s, x)
			e.DecodeInto(dst)
			e.AddTo(dst)
			e.Release()
		}); allocs >= 1 {
			t.Errorf("%s: pooled Encode+DecodeInto+AddTo allocates %.1f objects/op, want 0", s, allocs)
		}
		if allocs := testing.AllocsPerRun(100, func() {
			e := EncodeResidual(s, x, res)
			e.Release()
		}); allocs >= 1 {
			t.Errorf("%s: pooled EncodeResidual allocates %.1f objects/op, want 0", s, allocs)
		}
	}
}

// TestFusedCutsAllocs asserts the headline claim directly: the fused
// error-feedback round trip allocates strictly less than the unfused
// clone/add/encode/decode/sub composition it replaces.
func TestFusedCutsAllocs(t *testing.T) {
	r := tensor.NewRNG(23)
	x := tensor.RandUniform(r, -1, 1, 32, 64)
	res := tensor.RandUniform(r, -0.01, 0.01, 32, 64)
	for _, s := range []Scheme{FP16, INT8, INT4} {
		fused := testing.AllocsPerRun(50, func() {
			e := EncodeResidual(s, x, res)
			e.Release()
		})
		unfused := testing.AllocsPerRun(50, func() {
			e := unfusedEncodeResidual(s, x, res)
			e.Release()
		})
		if fused >= unfused {
			t.Errorf("%s: fused path allocates %.1f/op, unfused %.1f/op — want a strict cut",
				s, fused, unfused)
		}
	}
}
