package quant

import (
	"fmt"
	"math"
	"sync/atomic"

	"dmt/internal/tensor"
)

// Encoded is a tensor serialized under a Scheme: the object that travels
// through the comm runtime's channels in place of the raw fp32 tensor when a
// collective runs compressed. The in-memory representation mirrors the wire
// format (uint16 halves, one byte per int8 element, two int4 elements per
// byte, plus one quantization scale per row), so WireBytes is the size a
// real fabric would carry.
//
// Decode is a pure function of the Encoded value: every receiver of the same
// payload reconstructs bit-identical tensors, which is what keeps compressed
// collectives deterministic across ranks.
type Encoded struct {
	scheme Scheme
	shape  []int
	// rows/width are the per-row quantization geometry of the linear
	// schemes (width = last dimension for rank >= 2, whole tensor for 1-D).
	rows, width int

	raw *tensor.Tensor // None: by-reference passthrough (zero-copy)
	f16 []uint16       // FP16: IEEE binary16 bits
	q   []int8         // INT8: one quantized value per element
	nib []byte         // INT4: two quantized values per byte, low nibble first

	// scales holds one linear-quantization scale per row. The arithmetic is
	// kept in float64 so Encode followed by Decode reproduces Apply's
	// reference rounding bit for bit (the idempotence and error-feedback
	// invariants depend on it); the wire charge remains the 4 bytes/row a
	// production fp32-scale codec ships.
	scales []float64

	// Pool bookkeeping (see pool.go): pooled payloads carry a reference
	// count and return their buffers, by size class, on the last Release.
	refs   atomic.Int32
	pooled bool
	class  uint8
}

// toFloat16Sat converts with saturation: a finite value beyond the half
// range clamps to ±65504 instead of overflowing to Inf — what real fp16
// communication libraries do, and what keeps error-feedback residuals
// finite (v − decode(encode(v)) can never be ±Inf for finite v, so one
// gradient spike cannot poison the residual memory permanently). True
// ±Inf and NaN inputs still travel as themselves, mirroring the
// uncompressed wire.
//
// It is ToFloat16 (the scalar reference in float16_test.go) plus that
// clamp, without a branch: every case is computed and the right one
// selected (CMOVs on amd64), since a gradient bucket mixes subnormal and
// normal halves unpredictably. On the magnitude a:
//   - normal halves round in integers: rebias the exponent, add half an ulp
//     less one plus the kept LSB (ties to even), shift; min clamps overflow
//     to 65504;
//   - subnormal halves (a < 2⁻¹⁴) come from one float32 add of 0.5, whose
//     ulp is 2⁻²⁴, the subnormal half's step: the FPU's round-to-nearest-even
//     leaves the 10 kept bits at the bottom of the sum's mantissa, under
//     0.5's bits;
//   - ±Inf stays Inf and NaN becomes the quiet half NaN.
//
// Where the CPU has AVX2, Encode and EncodeResidual run this formula 8
// lanes at a time instead (tensor.Float16SatAVX2 via encodeHalves below:
// VPADDD/VPSRLD/VPMINUD for the normal case, one VADDPS for the subnormal
// one, compare-selects for the rest), bitwise this function on all 2³²
// inputs (`make fp16-exhaustive`). No F16C: its conversion overflows to Inf
// and keeps NaN payloads, where this encoder saturates and canonicalises.
//
// It stays out of line: inlined into a loop that looks the half up in
// FromFloat16's table, the compiler turns the selects back into branches,
// since it never makes a load address wait on a CMOV.
//
//go:noinline
func toFloat16Sat(v float32) uint16 {
	b := math.Float32bits(v)
	a := b &^ 0x80000000
	h := min((a+0xc8000fff+(a>>13)&1)>>13, 0x7bff)
	sub := math.Float32bits(math.Float32frombits(a)+0.5) - 0x3f000000
	if a < 0x38800000 {
		h = sub
	}
	if a >= 0x7f800000 {
		h = 0x7c00
	}
	if a > 0x7f800000 {
		h = 0x7e00
	}
	return uint16(b>>16&0x8000 | h)
}

// encodeHalves sets h[i] = toFloat16Sat(v[i]) for i < len(v), and
// encodeHalvesResidual is EncodeResidual's FP16 pass: with v = g[i] + r[i],
// h[i] = toFloat16Sat(v) and r[i] = v − FromFloat16(h[i]). Where the CPU
// has AVX2 (tensor.HasAVX2), init replaces both with tensor's 8-lane forms
// of the same integer formula and float32 operations
// (tensor.Float16SatAVX2, tensor.Float16SatResidualAVX2), which match these
// bit for bit on every float32 input, NaN payloads included; the scalar
// loops below stay the reference and run the n mod 8 tail.
var encodeHalves, encodeHalvesResidual = encodeHalvesRef, encodeHalvesResidualRef

// decodeHalves sets d[i] = FromFloat16(h[i]) and addHalves adds it, for
// i < len(d), bitwise as tensor.AddInPlace would add the decoded halves.
// Where the CPU has AVX2 init replaces both with tensor's
// 8-lane forms (tensor.Float16DecodeAVX2, tensor.Float16AddAVX2), which
// decode every half to the table's bits; the loops below stay the
// reference and run the n mod 8 tail.
var decodeHalves, addHalves = decodeHalvesRef, addHalvesRef

func decodeHalvesRef(d []float32, h []uint16) {
	h = h[:len(d)]
	for i, x := range h {
		d[i] = FromFloat16(x)
	}
}

// addHalvesRef decodes a chunk at a time and adds it with the loop
// tensor.AddInPlace runs, d the first source of each add, so a NaN in d
// keeps its payload against a decoded NaN. The one-line form
// d[i] += FromFloat16(x) leaves the operand order to the compiler, and
// under -race it puts the decoded half first (TestDecodeHalvesMatchTable
// fails there).
func addHalvesRef(d []float32, h []uint16) {
	var buf [64]float32
	for lo := 0; lo < len(d); lo += len(buf) {
		dd := d[lo:min(lo+len(buf), len(d))]
		s := buf[:len(dd)]
		decodeHalvesRef(s, h[lo:])
		for i := range dd {
			dd[i] += s[i]
		}
	}
}

func encodeHalvesRef(h []uint16, v []float32) {
	h = h[:len(v)]
	for i, x := range v {
		h[i] = toFloat16Sat(x)
	}
}

func encodeHalvesResidualRef(h []uint16, g, r []float32) {
	h, r = h[:len(g)], r[:len(g)] // hoisted: no per-element reload or bounds check
	for i := range g {
		vi := g[i] + r[i]
		hi := toFloat16Sat(vi)
		h[i] = hi
		r[i] = vi - FromFloat16(hi)
	}
}

// linearGeometry returns the (rows, width) a linear scheme quantizes over.
func linearGeometry(t *tensor.Tensor) (rows, width int) {
	rows, width = 1, t.Len()
	if t.Rank() >= 2 {
		width = t.Dim(-1)
		rows = t.Len() / width
	}
	return rows, width
}

func linearLevels(s Scheme) float64 {
	if s == INT4 {
		return 7
	}
	return 127
}

// Encode serializes t under the scheme. None keeps a reference to t (the
// in-process analog of sending the raw buffer); the other schemes copy into
// the reduced representation and do not retain t.
//
// The returned payload is pooled: once every holder has called Release the
// buffers are recycled, making steady-state encode allocation-free. Callers
// that never Release simply leave the value to the garbage collector.
func Encode(s Scheme, t *tensor.Tensor) *Encoded {
	e := getEncoded(s, t.Len())
	encode(e, s, t)
	return e
}

// EncodeTo is Encode into e, a payload the caller owns and reuses: its
// buffers are sized to exactly this payload the first time and reused by
// later encodes of the same size, so a caller that encodes the same tensors
// every step allocates nothing after the first and keeps no size-class
// slack. e must not come from Encode or EncodeResidual (a zero Encoded
// will do); Retain and Release do nothing to it, and the caller must not
// encode into it again while a receiver may still read it.
func EncodeTo(e *Encoded, s Scheme, t *tensor.Tensor) {
	e.owned(s)
	encode(e, s, t)
}

// owned readies e, a caller's payload, for an encode under s.
func (e *Encoded) owned(s Scheme) {
	if e.pooled {
		panic("quant: encoding into a pooled payload")
	}
	e.scheme = s
}

// encode is Encode's body, into e.
func encode(e *Encoded, s Scheme, t *tensor.Tensor) {
	if s != None {
		e.shape = append(e.shape[:0], t.Shape()...)
	}
	switch s {
	case None:
		e.raw = t
	case FP16:
		e.f16 = grow(e.f16, t.Len(), e.bufLen(t.Len()))
		encodeHalves(e.f16[:t.Len()], t.Data())
	case INT8, INT4:
		e.rows, e.width = linearGeometry(t)
		e.scales = grow(e.scales, e.rows, e.bufLen(e.rows))
		e.q = grow(e.q, t.Len(), e.bufLen(t.Len()))
		levels := linearLevels(s)
		for r := 0; r < e.rows; r++ {
			src := t.Data()[r*e.width : (r+1)*e.width]
			e.scales[r] = quantizeRow(src, e.q[r*e.width:(r+1)*e.width], levels)
		}
		if s == INT4 {
			// Pack signed nibbles biased by +8 (values -7..7 -> 1..15);
			// e.q stays behind as pooled scratch, the wire is nib+scales.
			e.nib = grow(e.nib, (t.Len()+1)/2, (e.bufLen(t.Len())+1)/2)
			packNibbles(e.q, e.nib)
		}
	default:
		panic("quant: cannot encode unknown scheme " + s.String())
	}
}

// quantizeRow symmetric-linearly quantizes one row into q and returns its
// scale. All-zero rows quantize to zero; non-finite rows cannot be scaled
// and are dropped to zero rather than poisoning the int8 conversion with
// NaN. Every element of q is written, so reused (pooled) buffers carry no
// stale values.
func quantizeRow(src []float32, q []int8, levels float64) float64 {
	maxAbs := 0.0
	for _, v := range src {
		if a := math.Abs(float64(v)); a > maxAbs {
			maxAbs = a
		}
	}
	if maxAbs == 0 || math.IsInf(maxAbs, 1) {
		for i := range q {
			q[i] = 0
		}
		return 0
	}
	scale := maxAbs / levels
	for i, v := range src {
		q[i] = quantizeVal(float64(v), scale, levels)
	}
	return scale
}

func quantizeVal(v, scale, levels float64) int8 {
	q := math.Round(v / scale)
	if math.IsNaN(q) {
		q = 0
	}
	if q > levels {
		q = levels
	}
	if q < -levels {
		q = -levels
	}
	return int8(q)
}

// packNibbles packs signed int4 values two per byte, low nibble first,
// biased by +8. Even indices assign the whole byte, so stale contents of a
// reused nib buffer are overwritten.
func packNibbles(qs []int8, nib []byte) {
	for i, v := range qs {
		n := byte(v+8) & 0xf
		if i%2 == 0 {
			nib[i/2] = n
		} else {
			nib[i/2] |= n << 4
		}
	}
}

// nibbleAt unpacks the i-th signed int4 value.
func nibbleAt(nib []byte, i int) int8 {
	return int8(nib[i/2]>>(uint(i%2)*4)&0xf) - 8
}

// Decode reconstructs the tensor as the receiver of the payload sees it.
// None returns the original tensor by reference; every other scheme
// allocates, so each receiver owns its decoded copy.
func (e *Encoded) Decode() *tensor.Tensor {
	switch e.scheme {
	case None:
		return e.raw
	case FP16:
		out := tensor.New(e.shape...)
		decodeHalves(out.Data(), e.f16)
		return out
	case INT8, INT4:
		out := tensor.New(e.shape...)
		at := func(i int) float64 { return float64(e.q[i]) }
		if e.scheme == INT4 {
			at = func(i int) float64 {
				n := e.nib[i/2] >> (uint(i%2) * 4) & 0xf
				return float64(int(n) - 8)
			}
		}
		for r := 0; r < e.rows; r++ {
			scale := e.scales[r]
			if scale == 0 {
				continue
			}
			dst := out.Data()[r*e.width : (r+1)*e.width]
			for i := range dst {
				dst[i] = float32(at(r*e.width+i) * scale)
			}
		}
		return out
	default:
		panic(fmt.Sprintf("quant: cannot decode scheme %v", e.scheme))
	}
}

// WireBytes returns the bytes the payload occupies on the wire: the quantity
// compressed collectives charge to the traffic counters in place of the raw
// 4 bytes/element.
func (e *Encoded) WireBytes() int {
	switch e.scheme {
	case None:
		if e.raw == nil {
			return 0
		}
		return 4 * e.raw.Len()
	case FP16:
		return 2 * len(e.f16)
	case INT8:
		return len(e.q) + 4*e.rows
	case INT4:
		return len(e.nib) + 4*e.rows
	default:
		return 0
	}
}
