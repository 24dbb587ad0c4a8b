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

// sentinel is a NaN with a payload no decode produces: a column outside
// DecodeIntoCols' window must keep exactly these bits.
var sentinel = math.Float32frombits(0x7fc0_5a5a)

// checkDecodeIntoCols decodes e into a destination of its rows, pad
// columns wider, at column col, and requires the window to equal want
// (e's Decode) bit for bit and every other column to keep the sentinel.
func checkDecodeIntoCols(t *testing.T, e *Encoded, want *tensor.Tensor, col, pad int) {
	t.Helper()
	rows, width := linearGeometry(want)
	stride := width + pad
	dst := tensor.New(rows, stride)
	for i := range dst.Data() {
		dst.Data()[i] = sentinel
	}
	e.DecodeIntoCols(dst, col)
	for r := 0; r < rows; r++ {
		for c := 0; c < stride; c++ {
			got := math.Float32bits(dst.Data()[r*stride+c])
			if c >= col && c < col+width {
				if w := math.Float32bits(want.Data()[r*width+c-col]); got != w {
					t.Fatalf("%s: DecodeIntoCols at column %d of %d: row %d column %d is %#08x, Decode has %#08x", e.scheme, col, stride, r, c, got, w)
				}
			} else if got != math.Float32bits(sentinel) {
				t.Fatalf("%s: DecodeIntoCols at column %d of %d wrote row %d column %d outside its window", e.scheme, col, stride, r, c)
			}
		}
	}
}

// TestDecodeIntoAndAddToMatchUnfused pins the fused receiver paths bitwise
// against Decode, for every scheme: DecodeInto must equal the decoded
// tensor; DecodeIntoCols must equal it in its column window of a wider
// destination, at column 0 and at an offset, and leave the other columns'
// bits alone; and AddTo must equal AddInPlace with it — including the += 0
// of skipped rows, which normalizes a −0 in the destination to +0 exactly
// like the unfused add.
func TestDecodeIntoAndAddToMatchUnfused(t *testing.T) {
	negZero := math.Float32frombits(0x80000000)
	for _, s := range Schemes() {
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
			checkDecodeIntoCols(t, e, want, 0, 0)
			checkDecodeIntoCols(t, e, want, 0, 3)
			checkDecodeIntoCols(t, e, want, 2, 5)

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
// The decoded row also lands in a column window of a wider destination, at
// an offset n picks.
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

			into := tensor.New(size)
			ef.DecodeInto(into)
			if !bitsEqual(into, decF) {
				t.Fatalf("%s: DecodeInto diverged on %v", s, x.Data())
			}
			checkDecodeIntoCols(t, ef, decF, int(n)%4, int(n)%4+int(n)/4%3)
			if s == None {
				continue
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

// TestReusedEncodeAllocs pins the hot loop at zero steady-state
// allocations: once a payload's buffers are sized, an EncodeTo or
// EncodeResidualTo into it — the per-bucket and step (f) wire path — reuses
// them outright, and the fused receiver paths write into caller storage.
func TestReusedEncodeAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates; strict zero-alloc pin only holds without it")
	}
	r := tensor.NewRNG(17)
	x := tensor.RandUniform(r, -1, 1, 16, 33) // odd width: nib path too
	res := tensor.RandUniform(r, -0.01, 0.01, 16, 33)
	dst, wide := tensor.New(16, 33), tensor.New(16, 40)
	for _, s := range []Scheme{FP16, INT8, INT4} {
		var e Encoded
		EncodeTo(&e, s, x) // size the buffers
		if allocs := testing.AllocsPerRun(100, func() {
			EncodeTo(&e, s, x)
			e.DecodeInto(dst)
			e.DecodeIntoCols(wide, 7)
			e.AddTo(dst)
		}); allocs != 0 {
			t.Errorf("%s: EncodeTo+DecodeInto+DecodeIntoCols+AddTo allocates %.1f objects/op, want 0", s, allocs)
		}
		if allocs := testing.AllocsPerRun(100, func() {
			EncodeResidualTo(&e, s, x, res)
		}); allocs != 0 {
			t.Errorf("%s: EncodeResidualTo allocates %.1f objects/op, want 0", s, allocs)
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
		fused := testing.AllocsPerRun(50, func() { EncodeResidual(s, x, res) })
		unfused := testing.AllocsPerRun(50, func() { unfusedEncodeResidual(s, x, res) })
		if fused >= unfused {
			t.Errorf("%s: fused path allocates %.1f/op, unfused %.1f/op — want a strict cut",
				s, fused, unfused)
		}
	}
}

// TestReusedEncodeMatchesFresh pins EncodeTo and EncodeResidualTo into
// one payload reused across every case — buffers grown for another size,
// holding the last case's values — to a fresh payload bit for bit
// (payload, residual, wire bytes): every encode overwrites all it ships. A
// fresh payload's buffers hold exactly its size, and repeating an encode
// into a sized payload allocates nothing. Under None EncodeResidualTo
// snapshots into a fresh tensor, so it never writes into the tensor an
// earlier EncodeTo of the same payload holds.
func TestReusedEncodeMatchesFresh(t *testing.T) {
	for _, s := range Schemes() {
		var own, ownRes Encoded
		for ci, x := range fusedCases() {
			r := tensor.NewRNG(uint64(31 + ci))
			resF := tensor.RandUniform(r, -0.01, 0.01, x.Shape()...)
			resO := resF.Clone()
			EncodeTo(&own, s, x)
			EncodeResidualTo(&ownRes, s, x, resO)
			fresh, freshRes := Encode(s, x), EncodeResidual(s, x, resF)
			for _, c := range []struct {
				name      string
				got, want *Encoded
			}{{"EncodeTo", &own, fresh}, {"EncodeResidualTo", &ownRes, freshRes}} {
				if !bitsEqual(c.got.Decode(), c.want.Decode()) || c.got.WireBytes() != c.want.WireBytes() {
					t.Fatalf("%s case %d: %s into a reused payload differs from a fresh one", s, ci, c.name)
				}
				for _, n := range []struct{ cap, len int }{
					{cap(c.want.f16), len(c.want.f16)}, {cap(c.want.q), len(c.want.q)},
					{cap(c.want.nib), len(c.want.nib)}, {cap(c.want.scales), len(c.want.scales)},
				} {
					if n.cap != n.len {
						t.Fatalf("%s case %d: a fresh payload's buffer holds %d for a payload of %d", s, ci, n.cap, n.len)
					}
				}
			}
			if !bitsEqual(resO, resF) {
				t.Fatalf("%s case %d: EncodeResidualTo's residual differs from EncodeResidual's", s, ci)
			}
			if s == None {
				held := x.Clone()
				EncodeTo(&ownRes, s, held)
				EncodeResidualTo(&ownRes, s, x, tensor.RandUniform(r, -0.01, 0.01, x.Shape()...))
				if !bitsEqual(held, x) {
					t.Fatalf("case %d: EncodeResidualTo wrote into the tensor EncodeTo handed the payload", ci)
				}
				continue
			}
			if raceEnabled {
				continue
			}
			if n := testing.AllocsPerRun(20, func() { EncodeResidualTo(&ownRes, s, x, resO) }); n != 0 {
				t.Errorf("%s case %d: a repeated EncodeResidualTo allocates %v times", s, ci, n)
			}
		}
	}
}
