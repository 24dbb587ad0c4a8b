package quant

import (
	"math"
	"testing"

	"dmt/internal/tensor"
)

// TestSchemeTableExhaustive pins the metadata of every scheme — String,
// BytesPerElem, MaxRelError, ParseScheme round trip — in one table, plus
// the unknown-scheme fallbacks.
func TestSchemeTableExhaustive(t *testing.T) {
	cases := []struct {
		s      Scheme
		str    string
		bytes  float64
		maxRel float64
	}{
		{None, "fp32", 4, 0},
		{FP16, "fp16", 2, 1.0 / 2048},
		{INT8, "int8", 1, 1.0 / 254},
		{INT4, "int4", 0.5, 1.0 / 14},
	}
	if len(cases) != len(Schemes()) {
		t.Fatalf("table covers %d schemes, package exports %d", len(cases), len(Schemes()))
	}
	for i, tc := range cases {
		if Schemes()[i] != tc.s {
			t.Fatalf("Schemes()[%d] = %v, want %v", i, Schemes()[i], tc.s)
		}
		if got := tc.s.String(); got != tc.str {
			t.Fatalf("%d.String() = %q, want %q", int(tc.s), got, tc.str)
		}
		if got := tc.s.BytesPerElem(); got != tc.bytes {
			t.Fatalf("%s.BytesPerElem() = %v, want %v", tc.s, got, tc.bytes)
		}
		if got := MaxRelError(tc.s); got != tc.maxRel {
			t.Fatalf("MaxRelError(%s) = %v, want %v", tc.s, got, tc.maxRel)
		}
		parsed, err := ParseScheme(tc.str)
		if err != nil || parsed != tc.s {
			t.Fatalf("ParseScheme(%q) = %v, %v", tc.str, parsed, err)
		}
	}
	// Unknown schemes render and fall back to fp32 width.
	if Scheme(42).String() != "Scheme(42)" || Scheme(42).BytesPerElem() != 4 || MaxRelError(Scheme(42)) != 0 {
		t.Fatal("unknown-scheme fallbacks changed")
	}
	for _, alias := range []string{"", "none", "FP32", "Half"} {
		if _, err := ParseScheme(alias); err != nil {
			t.Fatalf("alias %q must parse", alias)
		}
	}
	if _, err := ParseScheme("fp8"); err == nil {
		t.Fatal("unsupported scheme name must error")
	}
}

// TestEncodeDecodeMatchesApply: the wire codec and the in-place round trip
// must be the same function — the property the error-feedback residuals and
// the compressed-collective tests lean on.
func TestEncodeDecodeMatchesApply(t *testing.T) {
	r := tensor.NewRNG(13)
	shapes := [][]int{{7}, {3, 5}, {2, 3, 4}}
	for _, s := range []Scheme{FP16, INT8, INT4} {
		for _, shape := range shapes {
			x := tensor.RandN(r, 2, shape...)
			enc := Encode(s, x)
			if enc.Scheme() != s {
				t.Fatalf("encoded scheme %v, want %v", enc.Scheme(), s)
			}
			if !enc.Decode().Equal(Apply(s, x)) {
				t.Fatalf("%s %v: Encode∘Decode differs from Apply", s, shape)
			}
			// Decoding twice must give two independent, equal tensors.
			a, b := enc.Decode(), enc.Decode()
			if a == b || !a.Equal(b) {
				t.Fatalf("%s: Decode must allocate per call and be deterministic", s)
			}
		}
	}
}

// TestEncodedWireBytes pins the wire format's size arithmetic, including
// the odd-length int4 payload and the per-row scale overhead.
func TestEncodedWireBytes(t *testing.T) {
	r := tensor.NewRNG(17)
	x35 := tensor.RandN(r, 1, 3, 5) // 15 elems, 3 rows
	x7 := tensor.RandN(r, 1, 7)     // 7 elems, single scale
	cases := []struct {
		s    Scheme
		x    *tensor.Tensor
		want int
	}{
		{None, x35, 60},
		{FP16, x35, 30},
		{INT8, x35, 15 + 3*4},
		{INT4, x35, 8 + 3*4}, // 15 nibbles pack into 8 bytes
		{INT8, x7, 7 + 4},
		{INT4, x7, 4 + 4},
	}
	for _, tc := range cases {
		if got := Encode(tc.s, tc.x).WireBytes(); got != tc.want {
			t.Fatalf("%s of %v: WireBytes %d, want %d", tc.s, tc.x.Shape(), got, tc.want)
		}
	}
	var nilEnc *Encoded
	_ = nilEnc // nil payloads are handled by the comm layer, not the codec
}

// TestEncodeNoneIsReference: the None codec must pass the tensor through by
// reference, mirroring the raw collectives' zero-copy semantics.
func TestEncodeNoneIsReference(t *testing.T) {
	x := tensor.FromSlice([]float32{1, 2}, 2)
	if Encode(None, x).Decode() != x {
		t.Fatal("None must decode to the original tensor")
	}
}

// TestEncodeNonFiniteRows: rows that cannot be scaled (containing ±Inf)
// decode to zero instead of poisoning the int8 conversion, and NaN elements
// inside an otherwise finite row quantize to zero.
func TestEncodeNonFiniteRows(t *testing.T) {
	inf := float32(math.Inf(1))
	nan := float32(math.NaN())
	x := tensor.FromSlice([]float32{inf, 5, nan, 3}, 2, 2)
	y := Encode(INT8, x).Decode()
	if y.At(0, 0) != 0 || y.At(0, 1) != 0 {
		t.Fatalf("inf row must decode to zero, got %v", y.Data())
	}
	if y.At(1, 0) != 0 {
		t.Fatalf("NaN element must quantize to zero, got %v", y.At(1, 0))
	}
	if math.Abs(float64(y.At(1, 1))-3) > 3*float64(MaxRelError(INT8))+1e-6 {
		t.Fatalf("finite element next to NaN distorted: %v", y.At(1, 1))
	}
}

// TestFP16EncodeSaturates: the wire codec clamps finite overflow to ±65504
// instead of manufacturing ±Inf — otherwise a single gradient spike with
// |g+r| ≥ 65520 would drive the error-feedback residual to −Inf and poison
// training permanently. Genuine ±Inf still travels as Inf.
func TestFP16EncodeSaturates(t *testing.T) {
	inf := float32(math.Inf(1))
	x := tensor.FromSlice([]float32{70000, -1e10, 65504, inf, -inf, 1.5}, 6)
	y := Encode(FP16, x).Decode()
	want := []float32{65504, -65504, 65504, inf, -inf, 1.5}
	for i, w := range want {
		if y.Data()[i] != w {
			t.Fatalf("elem %d: %v encoded to %v, want %v", i, x.Data()[i], y.Data()[i], w)
		}
	}
	// The residual of a finite spike therefore stays finite.
	if resid := float64(70000 - y.Data()[0]); math.IsInf(resid, 0) {
		t.Fatal("saturation failed: residual is infinite")
	}
}

// TestFP16SubnormalTieRoundsToEven is the regression pin for the codec bug
// FuzzFloat16RoundTrip surfaced: a subnormal value exactly halfway between
// two half ulps must round to the even neighbour, not truncate.
func TestFP16SubnormalTieRoundsToEven(t *testing.T) {
	// 2^-15·(1 + 3/1024) = 513.5 subnormal ulps of 2^-24: ties to 514.
	v := math.Float32frombits(0x38006000)
	want := float32(514) * float32(math.Ldexp(1, -24))
	if got := FromFloat16(ToFloat16(v)); got != want {
		t.Fatalf("513.5-ulp subnormal tie: got %g (%d ulps), want %g",
			got, int(float64(got)*math.Ldexp(1, 24)), want)
	}
	// And a tie whose truncation is already even still truncates.
	v2 := math.Float32frombits(0x38001000) // 512.5 ulps -> 512
	if got := FromFloat16(ToFloat16(v2)); got != float32(512)*float32(math.Ldexp(1, -24)) {
		t.Fatalf("512.5-ulp tie must round down to even 512, got %g", got)
	}
}

// Scheme returns the scheme the payload was encoded under.
func (e *Encoded) Scheme() Scheme { return e.scheme }
