// Package quant implements the quantized-communication schemes the paper's
// Strong Baseline enables (§5.1, Yang et al. 2021) and the §6 discussion
// compares DMT against: emulated FP16 and symmetric linear INT8/INT4
// quantization of embedding payloads.
//
// Quantization here is real arithmetic, not an annotation: tensors are
// encoded to the reduced representation and decoded back, so the quality
// experiments measure genuine rounding error, and the byte accounting feeds
// the performance model's bytes-per-element knobs.
package quant

import (
	"fmt"
	"math"
	"strings"

	"dmt/internal/tensor"
)

// Scheme selects a communication precision.
type Scheme int

// Schemes, ordered by fidelity.
const (
	None Scheme = iota // fp32: 4 bytes/element
	FP16               // emulated half precision: 2 bytes/element
	INT8               // symmetric linear, per-row scale: 1 byte/element
	INT4               // symmetric linear, per-row scale: 0.5 bytes/element
)

// String names the scheme.
func (s Scheme) String() string {
	switch s {
	case None:
		return "fp32"
	case FP16:
		return "fp16"
	case INT8:
		return "int8"
	case INT4:
		return "int4"
	default:
		return fmt.Sprintf("Scheme(%d)", int(s))
	}
}

// ParseScheme converts a command-line name ("fp32", "fp16", "int8", "int4")
// into a Scheme. "none" and the empty string alias fp32.
func ParseScheme(name string) (Scheme, error) {
	switch strings.ToLower(name) {
	case "", "none", "fp32":
		return None, nil
	case "fp16", "half":
		return FP16, nil
	case "int8":
		return INT8, nil
	case "int4":
		return INT4, nil
	default:
		return None, fmt.Errorf("quant: unknown scheme %q (want fp32, fp16, int8, or int4)", name)
	}
}

// BytesPerElem returns the wire size per element (the performance model's
// EmbBytesPerElem).
func (s Scheme) BytesPerElem() float64 {
	switch s {
	case None:
		return 4
	case FP16:
		return 2
	case INT8:
		return 1
	case INT4:
		return 0.5
	default:
		return 4
	}
}

// Apply encodes and immediately decodes t under the scheme, returning the
// tensor as it would arrive after a quantized collective. None returns the
// input unchanged. Apply is exactly Encode followed by Decode, so a rank can
// predict locally (for error-feedback residuals) what every receiver of its
// compressed payload will reconstruct.
func Apply(s Scheme, t *tensor.Tensor) *tensor.Tensor {
	if s == None {
		return t
	}
	var e Encoded
	EncodeTo(&e, s, t)
	return e.Decode()
}

// FromFloat16 converts binary16 bits back to float32 exactly: one load from
// a table of all 65 536 halves (256 KiB), which init fills from decodeFloat16
// — the format's one definition. Most gradient halves on the wire are
// subnormal, so the receive side must not pay the normalising loop per
// element.
func FromFloat16(h uint16) float32 { return float16Table[h] }

var float16Table [1 << 16]float32

func init() {
	for h := range float16Table {
		float16Table[h] = decodeFloat16(uint16(h))
	}
}

// decodeFloat16 is the binary16 → float32 conversion FromFloat16 tabulates.
func decodeFloat16(h uint16) float32 {
	sign := uint32(h&0x8000) << 16
	exp := uint32(h >> 10 & 0x1f)
	mant := uint32(h & 0x3ff)
	switch exp {
	case 0:
		if mant == 0 {
			return math.Float32frombits(sign)
		}
		// Subnormal: normalize.
		e := uint32(127 - 15 + 1)
		for mant&0x400 == 0 {
			mant <<= 1
			e--
		}
		mant &= 0x3ff
		return math.Float32frombits(sign | e<<23 | mant<<13)
	case 0x1f:
		if mant == 0 {
			return math.Float32frombits(sign | 0x7f800000)
		}
		return math.Float32frombits(sign | 0x7fc00000)
	default:
		return math.Float32frombits(sign | (exp+127-15)<<23 | mant<<13)
	}
}
