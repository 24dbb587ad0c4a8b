package quant

import (
	"math"
	"slices"
	"testing"

	"dmt/internal/tensor"
)

// halfValue is the test's own reading of a binary16 magnitude (sign bit
// clear), independent of the codec: m·2^-24 below the normal range,
// (1024+m)·2^(e-25) in it. The exponent-31 row is read as if it were finite
// (0x7c00 = 65536), which is what the overflow midpoint 65520 rounds
// against.
func halfValue(mag uint16) float64 {
	e, m := int(mag>>10), float64(mag&0x3ff)
	if e == 0 {
		return math.Ldexp(m, -24)
	}
	return math.Ldexp(1024+m, e-25)
}

// TestFromFloat16TableExhaustive checks all 65 536 table entries: each is
// the format's definition (decodeFloat16) bit for bit, that definition
// agrees with the arithmetic reading above, every NaN half decodes to the
// same-signed canonical quiet NaN, and every other half survives
// ToFloat16(FromFloat16(h)) unchanged.
func TestFromFloat16TableExhaustive(t *testing.T) {
	for i := 0; i < 1<<16; i++ {
		h := uint16(i)
		got := math.Float32bits(FromFloat16(h))
		if def := math.Float32bits(decodeFloat16(h)); got != def {
			t.Fatalf("half %#04x: table holds %#08x, decodeFloat16 gives %#08x", h, got, def)
		}
		sign, mag := uint32(h&0x8000)<<16, h&0x7fff
		want := sign | math.Float32bits(float32(halfValue(mag)))
		switch {
		case mag > 0x7c00:
			want = sign | 0x7fc00000
		case mag == 0x7c00:
			want = sign | 0x7f800000
		}
		if got != want {
			t.Fatalf("half %#04x decodes to %#08x, want %#08x", h, got, want)
		}
		if mag <= 0x7c00 {
			if back := ToFloat16(FromFloat16(h)); back != h {
				t.Fatalf("half %#04x -> %g -> %#04x: not a fixed point", h, FromFloat16(h), back)
			}
		}
	}
}

// TestToFloat16MidpointNeighbours walks every pair of adjacent halves of
// either sign — zero to the smallest subnormal, the subnormal/normal seam,
// every binade boundary, 65504 to the overflow threshold — and rounds the
// float32 midpoint between them and its two float32 neighbours: just inside
// either half goes to that half, the exact tie to the even one.
func TestToFloat16MidpointNeighbours(t *testing.T) {
	for mag := uint16(0); mag < 0x7c00; mag++ {
		lo, hi := halfValue(mag), halfValue(mag+1)
		mid := float32((lo + hi) / 2) // exact: float32 carries 13 more bits than a half
		even := mag + mag&1
		for _, c := range []struct {
			v    float32
			want uint16
		}{
			{math.Nextafter32(mid, 0), mag},
			{mid, even},
			{math.Nextafter32(mid, float32(math.Inf(1))), mag + 1},
		} {
			if got := ToFloat16(c.v); got != c.want {
				t.Fatalf("%g (%#08x) between halves %#04x and %#04x rounds to %#04x, want %#04x",
					c.v, math.Float32bits(c.v), mag, mag+1, got, c.want)
			}
			if got := ToFloat16(-c.v); got != 0x8000|c.want {
				t.Fatalf("%g rounds to %#04x, want %#04x", -c.v, got, 0x8000|c.want)
			}
		}
	}
}

// toFloat16SatRef is the saturating encoder's definition: ToFloat16, the
// IEEE reference, with a finite value that overflows clamped to ±65504.
func toFloat16SatRef(v float32) uint16 {
	h := ToFloat16(v)
	if h&0x7fff == 0x7c00 && !math.IsInf(float64(v), 0) {
		return h&0x8000 | 0x7bff
	}
	return h
}

// TestToFloat16SatMatchesReference pins the branch-free toFloat16Sat, and
// the encoders the codec selected (the AVX2 ones where the CPU has AVX2),
// to the definition on every sign × exponent × kept 10-bit mantissa, each
// with the 13 dropped bits at 0, 1, just under and exactly at the rounding
// midpoint, just past it, and all ones; then on NaN payloads, ±Inf, ±0 and
// float32 subnormals. The selected encoders run over all of these at once,
// as a payload whose length is not a multiple of 8: encodeHalves against
// the definition, and encodeHalvesResidual against its scalar reference on
// a residual with specials of its own. Everything is compared by bits, NaN
// payloads included. `make fp16-exhaustive` runs the same comparisons over
// all 2³² float32 inputs.
func TestToFloat16SatMatchesReference(t *testing.T) {
	var in []float32
	for sign := uint32(0); sign < 2; sign++ {
		for exp := uint32(0); exp < 256; exp++ {
			for mant := uint32(0); mant < 1024; mant++ {
				for _, low := range []uint32{0, 1, 0xfff, 0x1000, 0x1001, 0x1fff} {
					in = append(in, math.Float32frombits(sign<<31|exp<<23|mant<<13|low))
				}
			}
		}
	}
	for _, bits := range []uint32{
		0x7f800000, 0xff800000, // ±Inf
		0x00000000, 0x80000000, // ±0
		0x7fc00000, 0xffc00000, 0x7f800001, 0xff800001, 0x7fbfffff, 0x7fffffff, 0xffffffff, 0x7fd2468a, // NaN payloads, quiet and signalling
		0x00000001, 0x80000001, 0x00000fff, 0x00400000, 0x007fffff, 0x807fffff, // float32 subnormals
		0x3f800000, // one more: the length is not a multiple of 8
	} {
		in = append(in, math.Float32frombits(bits))
	}
	if len(in)%8 == 0 {
		t.Fatalf("%d inputs: want a tail past the last block of 8", len(in))
	}
	for _, v := range in {
		if got, want := toFloat16Sat(v), toFloat16SatRef(v); got != want {
			t.Fatalf("%g (%#08x) encodes to %#04x, want %#04x", v, math.Float32bits(v), got, want)
		}
	}
	h := make([]uint16, len(in))
	encodeHalves(h, in)
	for i, v := range in {
		if want := toFloat16SatRef(v); h[i] != want {
			t.Fatalf("encodeHalves: element %d, %g (%#08x), encodes to %#04x, want %#04x", i, v, math.Float32bits(v), h[i], want)
		}
	}
	checkHalvesResidual(t, in, residualOperand(len(in)))
	// NaN plus NaN keeps g's payload, as AddInPlace's g + r does.
	gNaN, rNaN := make([]float32, 19), make([]float32, 19)
	for i := range gNaN {
		gNaN[i] = math.Float32frombits(0x7fc00000 | uint32(i+1) | uint32(i%2)<<31)
		rNaN[i] = math.Float32frombits(0xffd00000 | uint32(i+100) ^ uint32(i%3)<<31)
	}
	checkHalvesResidual(t, gNaN, rNaN)
}

// residualOperand is an error-feedback residual for n elements: small
// values of either sign, with a special (NaNs with their own payloads, ±Inf,
// ±0, a float32 subnormal, values past the half range) every 7th element.
func residualOperand(n int) []float32 {
	specials := []float32{
		math.Float32frombits(0x7fc0dead), math.Float32frombits(0xff812345),
		float32(math.Inf(1)), float32(math.Inf(-1)), 0, float32(math.Copysign(0, -1)),
		1e-40, 7e4, -7e4,
	}
	r := make([]float32, n)
	for i := range r {
		r[i] = float32(i%13-6) * 1e-6
		if i%7 == 3 {
			r[i] = specials[i%len(specials)]
		}
	}
	return r
}

// checkHalvesResidual runs the selected encodeHalvesResidual and its scalar
// reference on the same g and r, and requires the same halves and the same
// rewritten residual, bit for bit.
func checkHalvesResidual(t *testing.T, g, r []float32) {
	t.Helper()
	h, hRef := make([]uint16, len(g)), make([]uint16, len(g))
	rGot, rRef := append([]float32(nil), r...), append([]float32(nil), r...)
	encodeHalvesResidual(h, g, rGot)
	encodeHalvesResidualRef(hRef, g, rRef)
	for i := range g {
		if h[i] != hRef[i] || math.Float32bits(rGot[i]) != math.Float32bits(rRef[i]) {
			t.Fatalf("encodeHalvesResidual: element %d, g %#08x r %#08x, gives half %#04x residual %#08x; the scalar reference %#04x and %#08x",
				i, math.Float32bits(g[i]), math.Float32bits(r[i]), h[i], math.Float32bits(rGot[i]), hRef[i], math.Float32bits(rRef[i]))
		}
	}
}

// TestPoolIsSizeClassed is the regression pin for the size-blind payload
// pool: rounds of large payloads (a top-layer gradient) interleaved with
// rounds of small ones (an AlltoAll chunk) must not hand the large buffers
// to the small payloads. Every buffer handed out holds less than twice the
// capacity it needs, whatever else the pool has seen.
func TestPoolIsSizeClassed(t *testing.T) {
	r := tensor.NewRNG(5)
	large := tensor.RandUniform(r, -1, 1, 256, 152)
	small := tensor.RandUniform(r, -1, 1, 512)
	for _, s := range []Scheme{FP16, INT8} {
		for round := 0; round < 4; round++ {
			for _, x := range []*tensor.Tensor{large, small} {
				var es [8]*Encoded
				held := 0
				for i := range es {
					es[i] = Encode(s, x)
					held += max(cap(es[i].f16), cap(es[i].q)) // one object serves both schemes
				}
				if limit := 2 * len(es) * x.Len(); held >= limit {
					t.Fatalf("%s round %d: %d payloads of %d elements hold capacity for %d, want < %d",
						s, round, len(es), x.Len(), held, limit)
				}
				for _, e := range es {
					e.Release()
				}
			}
		}
	}
}

// ToFloat16 converts a float32 to IEEE 754 binary16 bits with
// round-to-nearest-even, handling subnormals, infinities, and NaN.
func ToFloat16(f float32) uint16 {
	bits := math.Float32bits(f)
	sign := uint16(bits>>16) & 0x8000
	exp := int32(bits>>23&0xff) - 127 + 15
	mant := bits & 0x7fffff
	switch {
	case exp >= 0x1f: // overflow or inf/nan
		if int32(bits>>23&0xff) == 0xff && mant != 0 {
			return sign | 0x7e00 // NaN
		}
		return sign | 0x7c00 // Inf
	case exp <= 0:
		if exp < -10 {
			return sign // underflow to zero
		}
		// Subnormal: shift mantissa (with implicit leading 1) and round to
		// nearest even like the normal path: add (half-1) plus the kept LSB,
		// so ties round up exactly when the truncated result would be odd.
		// (A previous version truncated every tie, rounding e.g. 513.5
		// subnormal ulps down to 513 instead of the even 514 — found by
		// FuzzFloat16RoundTrip.)
		mant |= 0x800000
		shift := uint32(14 - exp)
		half := uint32(1) << (shift - 1)
		rounded := mant + (half - 1) + (mant>>shift)&1
		return sign | uint16(rounded>>shift)
	default:
		// Normal: round mantissa from 23 to 10 bits, nearest even.
		rounded := mant + 0xfff + (mant>>13)&1
		if rounded&0x800000 != 0 {
			rounded = 0
			exp++
			if exp >= 0x1f {
				return sign | 0x7c00
			}
		}
		return sign | uint16(exp)<<10 | uint16(rounded>>13)
	}
}

// TestDecodeHalvesMatchTable pins the fp16 decoders the codec selected
// (the AVX2 ones where the CPU has AVX2), and their scalar references, to
// FromFloat16's table on all 65 536 halves, NaNs and both signs of zero
// included, by bits: decodeHalves straight, and addHalves onto
// destinations with specials of their own (NaN payloads, ±Inf, ±0) against
// tensor.AddInPlace of the table's halves — AddTo's contract, NaN payloads
// included. Each run is one past a multiple of 8, so the scalar tail runs
// too, and starts at every offset 0–7 into the halves, so each half meets
// every vector lane.
func TestDecodeHalvesMatchTable(t *testing.T) {
	h := make([]uint16, 1<<16+1+7)
	for i := range h {
		h[i] = uint16(i)
	}
	specials := []uint32{0x7fc00000, 0xffd2468a, 0x7f800001, 0x7f800000, 0xff800000, 0x80000000, 0, 0x3f800000, 0xc2f6e979, 0x00000001}
	type codec struct{ decode, add func([]float32, []uint16) }
	for ci, c := range []codec{{decodeHalves, addHalves}, {decodeHalvesRef, addHalvesRef}} {
		for off := range 8 {
			in := h[off : off+1<<16+1]
			got, sum, table := make([]float32, len(in)), make([]float32, len(in)), make([]float32, len(in))
			for i, x := range in {
				sum[i] = math.Float32frombits(specials[i%len(specials)])
				table[i] = FromFloat16(x)
			}
			want := slices.Clone(sum)
			tensor.AddInPlace(tensor.FromSlice(want, len(want)), tensor.FromSlice(table, len(table)))
			c.decode(got, in)
			c.add(sum, in)
			for i, x := range in {
				if g, w := math.Float32bits(got[i]), math.Float32bits(table[i]); g != w {
					t.Fatalf("codec %d offset %d: half %#04x decodes to %#08x, the table holds %#08x", ci, off, x, g, w)
				}
				if g, w := math.Float32bits(sum[i]), math.Float32bits(want[i]); g != w {
					t.Fatalf("codec %d offset %d: %#08x + half %#04x gives %#08x, want %#08x",
						ci, off, specials[i%len(specials)], x, g, w)
				}
			}
		}
	}
}
