package quant

import (
	"math"
	"testing"

	"dmt/internal/tensor"
)

// FuzzFloat16RoundTrip drives ToFloat16/FromFloat16 over arbitrary float32
// bit patterns — NaNs (every payload), ±Inf, subnormals, negative zero, the
// overflow boundary — and checks the IEEE contract:
//
//   - NaN stays NaN; infinities and overflowing magnitudes (≥ 65520, the
//     round-to-nearest-even overflow threshold) map to same-signed Inf,
//     and nothing else does;
//   - the sign bit survives, including on signed zeros and underflow;
//   - the round trip is a fixed point (re-encoding gives the same bits);
//   - |rt − v| ≤ max(2^-25, |v|·2^-11): half the subnormal ulp, or the
//     relative half-ulp at 10 mantissa bits;
//   - the wire's branch-free saturating encoder gives ToFloat16's half
//     with finite overflow clamped to ±65504 (toFloat16SatRef).
//
// This fuzzer found a real defect: the subnormal path rounded every tie
// toward truncation instead of to even, so values like 513.5 subnormal ulps
// decoded to 513 instead of 514.
func FuzzFloat16RoundTrip(f *testing.F) {
	for _, bits := range []uint32{
		0x00000000, // +0
		0x80000000, // -0
		0x3f800000, // 1
		0x7f800000, // +Inf
		0xff800000, // -Inf
		0x7fc00000, // canonical NaN
		0x7f800001, // signaling-style NaN payload
		0x00000001, // smallest float32 subnormal
		0x387fc000, // largest half subnormal (≈ 6.0976e-5)
		0x477fe000, // 65504, largest half
		0x477ff000, // 65520, overflow tie
		0x38006000, // 513.5-ulp subnormal tie the old code misrounded
	} {
		f.Add(bits)
	}
	f.Fuzz(func(t *testing.T, bits uint32) {
		v := math.Float32frombits(bits)
		h := ToFloat16(v)
		rt := FromFloat16(h)

		if got, want := toFloat16Sat(v), toFloat16SatRef(v); got != want {
			t.Fatalf("%v (%#x): branch-free saturating encode gives %#x, reference %#x", v, bits, got, want)
		}

		if v != v { // NaN
			if rt == rt {
				t.Fatalf("NaN %#x round-tripped to %v", bits, rt)
			}
			return
		}
		if math.Signbit(float64(rt)) != math.Signbit(float64(v)) {
			t.Fatalf("%v (%#x) lost its sign: got %v", v, bits, rt)
		}
		abs := math.Abs(float64(v))
		if math.IsInf(float64(rt), 0) != (abs >= 65520) {
			t.Fatalf("%v (%#x) -> %v: overflow boundary is 65520", v, bits, rt)
		}
		if ToFloat16(rt) != h {
			t.Fatalf("%v (%#x): round trip is not a fixed point: %#x -> %#x",
				v, bits, h, ToFloat16(rt))
		}
		if !math.IsInf(float64(rt), 0) {
			err := math.Abs(float64(rt) - float64(v))
			bound := math.Max(math.Ldexp(1, -25), abs*math.Ldexp(1, -11))
			if err > bound {
				t.Fatalf("%v (%#x) -> %v: error %g exceeds bound %g", v, bits, rt, err, bound)
			}
		}
	})
}

// FuzzLinearQuantRoundTrip feeds arbitrary finite rows through the INT8 and
// INT4 codecs (Encode -> wire representation -> Decode) and asserts the
// per-row MaxRelError guarantee — |decoded − v| ≤ maxAbs(row)·MaxRelError —
// plus idempotence: re-quantizing an already-quantized row is a fixed
// point. Rows whose scale would be float32-subnormal are exempt from the
// fixed-point check (the decode rounding there is coarser than the scale).
func FuzzLinearQuantRoundTrip(f *testing.F) {
	f.Add(float32(1), float32(-2), float32(3), float32(-4), uint8(0))
	f.Add(float32(0), float32(0), float32(0), float32(0), uint8(1))
	f.Add(float32(1e-30), float32(1e30), float32(-1e30), float32(5), uint8(0))
	f.Add(float32(math.Pi), float32(-math.E), float32(0.5), float32(-0.25), uint8(1))
	f.Fuzz(func(t *testing.T, a, b, c, d float32, pick uint8) {
		vals := []float32{a, b, c, d}
		for _, v := range vals {
			if v != v || math.IsInf(float64(v), 0) {
				return // the codec's guarantees cover finite payloads
			}
		}
		s := []Scheme{INT8, INT4}[pick%2]
		x := tensor.FromSlice(vals, 2, 2) // two rows of two: per-row scales
		y := Encode(s, x).Decode()

		for row := 0; row < 2; row++ {
			maxAbs := 0.0
			for _, v := range x.Row(row) {
				if av := math.Abs(float64(v)); av > maxAbs {
					maxAbs = av
				}
			}
			// MaxRelError covers the quantization grid; the 2^-23 term covers
			// the float32 rounding of the decoded product q·scale.
			bound := maxAbs * (MaxRelError(s) + math.Ldexp(1, -23))
			for i, v := range x.Row(row) {
				if err := math.Abs(float64(y.Row(row)[i]) - float64(v)); err > bound {
					t.Fatalf("%s row %v: error %g exceeds MaxRelError bound %g",
						s, x.Row(row), err, bound)
				}
			}
		}

		// Idempotence, skipping subnormal-scale rows.
		minNormal := math.Ldexp(1, -126) * linearLevels(s)
		stable := true
		for row := 0; row < 2; row++ {
			maxAbs := 0.0
			for _, v := range x.Row(row) {
				if av := math.Abs(float64(v)); av > maxAbs {
					maxAbs = av
				}
			}
			if maxAbs != 0 && maxAbs < minNormal {
				stable = false
			}
		}
		if stable {
			if z := Encode(s, y).Decode(); !z.Equal(y) {
				t.Fatalf("%s: quantizing a quantized tensor moved: %v -> %v", s, y.Data(), z.Data())
			}
		}
	})
}
