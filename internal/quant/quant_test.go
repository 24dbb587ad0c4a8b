package quant

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"dmt/internal/tensor"
)

func TestSchemeMetadata(t *testing.T) {
	if None.BytesPerElem() != 4 || FP16.BytesPerElem() != 2 || INT8.BytesPerElem() != 1 || INT4.BytesPerElem() != 0.5 {
		t.Fatal("bytes per element wrong")
	}
	for _, s := range []Scheme{None, FP16, INT8, INT4} {
		if s.String() == "" {
			t.Fatal("scheme must render")
		}
	}
	if Scheme(9).String() == "" || Scheme(9).BytesPerElem() != 4 {
		t.Fatal("unknown scheme fallback")
	}
}

func TestNoneIsIdentity(t *testing.T) {
	x := tensor.RandN(tensor.NewRNG(1), 1, 4, 4)
	if Apply(None, x) != x {
		t.Fatal("None must return the input unchanged")
	}
}

func TestFP16KnownValues(t *testing.T) {
	cases := map[float32]float32{
		0:       0,
		1:       1,
		-2:      -2,
		0.5:     0.5,
		65504:   65504,    // max half
		1.0e-8:  0,        // below subnormal range -> 0 (approx)
		3.14159: 3.140625, // nearest half to pi
	}
	for in, want := range cases {
		got := FromFloat16(ToFloat16(in))
		if math.Abs(float64(got-want)) > 1e-6 {
			t.Fatalf("fp16(%v) = %v, want %v", in, got, want)
		}
	}
	// Overflow saturates to +inf.
	if !math.IsInf(float64(FromFloat16(ToFloat16(1e10))), 1) {
		t.Fatal("fp16 overflow must give +inf")
	}
	// NaN round-trips as NaN.
	nan := float32(math.NaN())
	if v := FromFloat16(ToFloat16(nan)); v == v {
		t.Fatal("fp16 NaN must stay NaN")
	}
	// Sign preserved.
	if FromFloat16(ToFloat16(-0.25)) != -0.25 {
		t.Fatal("fp16 sign")
	}
}

// TestFP16RelativeErrorBound draws values in ±100 and checks each round
// trip: within half an ulp relative to v where v is a normal half
// (|v| ≥ 2⁻¹⁴), and within half the subnormal step, 2⁻²⁵, below it, where a
// half has a fixed absolute step of 2⁻²⁴ and the relative error grows as v
// shrinks. quick draws its seeds from a fixed source, and the seed whose
// 99th draw, 2.2367127e-05, is subnormal as a half runs as a case of its own.
func TestFP16RelativeErrorBound(t *testing.T) {
	f := func(seed uint64) bool {
		r := tensor.NewRNG(seed)
		for i := 0; i < 200; i++ {
			v := float32((r.Float64()*2 - 1) * 100)
			if v == 0 {
				continue
			}
			got := FromFloat16(ToFloat16(v))
			diff := math.Abs(float64(got - v))
			if math.Abs(float64(v)) < 0x1p-14 {
				if diff > 0x1p-25 {
					return false
				}
			} else if diff/math.Abs(float64(v)) > MaxRelError(FP16)+1e-9 {
				return false
			}
		}
		return true
	}
	if !f(0xefeef8966f5cfe) {
		t.Fatal("seed 0xefeef8966f5cfe: a round trip is out of bounds")
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20, Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Fatal(err)
	}
}

func TestFP16SubnormalRange(t *testing.T) {
	// 2^-17 is representable as a half subnormal.
	v := float32(math.Ldexp(1, -17))
	got := FromFloat16(ToFloat16(v))
	if got <= 0 || math.Abs(float64(got-v))/float64(v) > 0.05 {
		t.Fatalf("subnormal handling wrong: %v -> %v", v, got)
	}
}

func TestLinearQuantErrorBound(t *testing.T) {
	r := tensor.NewRNG(3)
	x := tensor.RandN(r, 1, 16, 32)
	for _, s := range []Scheme{INT8, INT4} {
		q := Apply(s, x)
		// Per-row max-abs sets the scale; error per element ≤ scale/2.
		for row := 0; row < 16; row++ {
			maxAbs := 0.0
			for _, v := range x.Row(row) {
				if a := math.Abs(float64(v)); a > maxAbs {
					maxAbs = a
				}
			}
			levels := 127.0
			if s == INT4 {
				levels = 7
			}
			bound := maxAbs/levels/2 + 1e-7
			for i, v := range x.Row(row) {
				if d := math.Abs(float64(q.Row(row)[i] - v)); d > bound {
					t.Fatalf("%s row %d elem %d: error %v > bound %v", s, row, i, d, bound)
				}
			}
		}
	}
}

func TestLinearQuantIdempotent(t *testing.T) {
	x := tensor.RandN(tensor.NewRNG(5), 1, 8, 8)
	once := Apply(INT8, x)
	twice := Apply(INT8, once)
	if !once.Equal(twice) {
		t.Fatal("quantizing a quantized tensor must be a fixed point")
	}
}

func TestZeroTensorQuantizesToZero(t *testing.T) {
	x := tensor.New(4, 4)
	for _, s := range []Scheme{FP16, INT8, INT4} {
		q := Apply(s, x)
		for _, v := range q.Data() {
			if v != 0 {
				t.Fatalf("%s of zero tensor must be zero", s)
			}
		}
	}
}

func TestFidelityOrdering(t *testing.T) {
	// Mean squared error must grow as precision falls.
	x := tensor.RandN(tensor.NewRNG(7), 1, 64, 16)
	mse := func(s Scheme) float64 {
		q := Apply(s, x)
		total := 0.0
		for i, v := range x.Data() {
			d := float64(q.Data()[i] - v)
			total += d * d
		}
		return total / float64(x.Len())
	}
	fp16, int8, int4 := mse(FP16), mse(INT8), mse(INT4)
	if !(fp16 < int8 && int8 < int4) {
		t.Fatalf("fidelity ordering broken: fp16 %v, int8 %v, int4 %v", fp16, int8, int4)
	}
}

func TestQuickFP16RoundTripStable(t *testing.T) {
	// Round-tripping twice equals round-tripping once (fp16 values are
	// fixed points of the conversion).
	f := func(seed uint64) bool {
		r := tensor.NewRNG(seed)
		v := float32((r.Float64()*2 - 1) * 1000)
		once := FromFloat16(ToFloat16(v))
		twice := FromFloat16(ToFloat16(once))
		return once == twice
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200, Rand: rand.New(rand.NewSource(2))}); err != nil {
		t.Fatal(err)
	}
}

// Schemes lists every scheme in fidelity order, for sweeps and exhaustive
// tests.
func Schemes() []Scheme { return []Scheme{None, FP16, INT8, INT4} }

// MaxRelError returns the worst-case relative rounding error of a scheme on
// values of similar magnitude: the per-step guarantee used by the tests.
func MaxRelError(s Scheme) float64 {
	switch s {
	case None:
		return 0
	case FP16:
		return 1.0 / 2048 // half of ulp at 10 mantissa bits
	case INT8:
		return 1.0 / 254
	case INT4:
		return 1.0 / 14
	default:
		return 0
	}
}
