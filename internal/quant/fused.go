package quant

import (
	"fmt"
	"math"

	"dmt/internal/tensor"
)

// This file holds the fused hot-path entry points of the codec. The unfused
// building blocks (Encode, Decode, Apply) stay as the reference semantics;
// each fused routine below is pinned bitwise against its unfused composition
// by the tests, and exists so the compressed-collective hot loop never
// materializes an intermediate fp32 tensor:
//
//	EncodeResidual(s, g, r) ≡ v := Clone(g); AddInPlace(v, r);
//	                          e := Encode(s, v); r = Sub(v, e.Decode())
//	e.DecodeInto(dst)       ≡ dst.CopyFrom(e.Decode())
//	e.DecodeIntoCols(dst, c) ≡ the same, into columns c… of dst's rows
//	e.AddTo(dst)            ≡ AddInPlace(dst, e.Decode())

// EncodeResidual encodes v = g + r under s into a fresh payload and
// rewrites r in place to the error-feedback residual v − decode(encode(v)),
// without materializing v (except under None, where the receiver needs the
// raw tensor and the residual is what v − v leaves — zeros, or NaN where v
// is ±Inf). g is left untouched. The float32 operations and their order are
// exactly those of the unfused composition, so training trajectories do not
// move by a bit.
func EncodeResidual(s Scheme, g, r *tensor.Tensor) *Encoded {
	e := new(Encoded)
	EncodeResidualTo(e, s, g, r)
	return e
}

// EncodeResidualTo is EncodeResidual into e, a payload the caller owns and
// reuses, as EncodeTo is Encode. Under None each call takes a fresh
// snapshot tensor, so it never writes into a tensor an earlier EncodeTo of
// e handed it.
func EncodeResidualTo(e *Encoded, s Scheme, g, r *tensor.Tensor) {
	if g.Len() != r.Len() {
		panic(fmt.Sprintf("quant: EncodeResidual size mismatch %d vs %d", g.Len(), r.Len()))
	}
	gd, rd := g.Data(), r.Data()
	e.scheme = s
	e.rows, e.width = linearGeometry(g)
	if s != None {
		e.shape = append(e.shape[:0], g.Shape()...)
	}
	switch s {
	case None:
		v := tensor.New(g.Shape()...)
		vd := v.Data()
		for i := range gd {
			vi := gd[i] + rd[i]
			vd[i] = vi
			rd[i] = vi - vi
		}
		e.raw = v
	case FP16:
		e.f16 = grow(e.f16, g.Len())
		encodeHalvesResidual(e.f16[:len(gd)], gd, rd)
	case INT8, INT4:
		e.scales = grow(e.scales, e.rows)
		e.q = grow(e.q, g.Len())
		levels := linearLevels(s)
		for row := 0; row < e.rows; row++ {
			lo, hi := row*e.width, (row+1)*e.width
			// Pass 1: the row's max magnitude. v is recomputed in pass 2
			// from the same inputs (r is only written after its element is
			// consumed), so both passes see identical bits.
			maxAbs := 0.0
			for i := lo; i < hi; i++ {
				vi := gd[i] + rd[i]
				if a := math.Abs(float64(vi)); a > maxAbs {
					maxAbs = a
				}
			}
			qrow := e.q[lo:hi]
			if maxAbs == 0 || math.IsInf(maxAbs, 1) {
				// Skipped row: decodes to zeros, so the residual keeps the
				// whole value (v − 0), exactly like the unfused Sub.
				e.scales[row] = 0
				for i := lo; i < hi; i++ {
					vi := gd[i] + rd[i]
					qrow[i-lo] = 0
					rd[i] = vi - 0
				}
				continue
			}
			scale := maxAbs / levels
			e.scales[row] = scale
			for i := lo; i < hi; i++ {
				vi := gd[i] + rd[i]
				q := quantizeVal(float64(vi), scale, levels)
				qrow[i-lo] = q
				rd[i] = vi - float32(float64(q)*scale)
			}
		}
		if s == INT4 {
			e.nib = grow(e.nib, (g.Len()+1)/2)
			packNibbles(e.q, e.nib)
		}
	default:
		panic("quant: cannot encode unknown scheme " + s.String())
	}
}

// DecodeInto reconstructs the payload into dst, a tensor of the payload's
// length, overwriting every element — the zero-allocation receiver path.
// It is DecodeIntoCols at column 0 with dst read as the payload's own rows.
// Bitwise identical to Decode.
func (e *Encoded) DecodeInto(dst *tensor.Tensor) {
	if dst.Len() != e.rows*e.width {
		panic(fmt.Sprintf("quant: DecodeInto size mismatch %d vs %d", dst.Len(), e.rows*e.width))
	}
	e.decodeRows(dst.Data(), e.width)
}

// DecodeIntoCols reconstructs the payload into the column window col to
// col+w−1 of dst, where w is the payload's row width (its last dimension,
// or its whole length if 1-D) and dst, read as rows of its own last
// dimension, has the payload's row count: the receiver of one column block
// of a wider tensor decodes straight into its place. The window is bitwise
// Decode's; dst's other columns keep their bits.
func (e *Encoded) DecodeIntoCols(dst *tensor.Tensor, col int) {
	rows, stride := linearGeometry(dst)
	if rows != e.rows || col < 0 || col+e.width > stride {
		panic(fmt.Sprintf("quant: a %dx%d payload does not fit at column %d of %dx%d", e.rows, e.width, col, rows, stride))
	}
	e.decodeRows(dst.Data()[col:], stride)
}

// decodeRows writes the payload's row r to d[r*stride:][:e.width].
func (e *Encoded) decodeRows(d []float32, stride int) {
	switch e.scheme {
	case None, FP16:
		// No per-row scale: rows that lie back to back decode as one run.
		runs, n := e.rows, e.width
		if stride == n {
			runs, n = 1, e.rows*e.width
		}
		for r := 0; r < runs; r++ {
			if e.scheme == None {
				copy(d[r*stride:][:n], e.raw.Data()[r*n:][:n])
			} else {
				decodeHalves(d[r*stride:][:n], e.f16[r*n:][:n])
			}
		}
	case INT8, INT4:
		for r := 0; r < e.rows; r++ {
			scale := e.scales[r]
			row := d[r*stride:][:e.width]
			if scale == 0 {
				for i := range row {
					row[i] = 0
				}
				continue
			}
			if e.scheme == INT8 {
				q := e.q[r*e.width : (r+1)*e.width]
				for i := range row {
					row[i] = float32(float64(q[i]) * scale)
				}
			} else {
				for i := range row {
					row[i] = float32(float64(nibbleAt(e.nib, r*e.width+i)) * scale)
				}
			}
		}
	default:
		panic(fmt.Sprintf("quant: cannot decode scheme %v", e.scheme))
	}
}

// AddTo accumulates the decoded payload into dst (dst += decode(e)) without
// materializing the decoded tensor: the fused reduce step of compressed
// collectives. Bitwise identical to AddInPlace(dst, e.Decode()) — including
// for zero-scale rows, whose += 0 still normalizes a −0 in dst to +0 exactly
// as the unfused addition does.
func (e *Encoded) AddTo(dst *tensor.Tensor) {
	d := dst.Data()
	switch e.scheme {
	case None:
		tensor.AddInPlace(dst, e.raw)
	case FP16:
		if len(d) != len(e.f16) {
			panic(fmt.Sprintf("quant: AddTo size mismatch %d vs %d", len(d), len(e.f16)))
		}
		addHalves(d, e.f16)
	case INT8, INT4:
		if len(d) != e.rows*e.width {
			panic(fmt.Sprintf("quant: AddTo size mismatch %d vs %d", len(d), e.rows*e.width))
		}
		for r := 0; r < e.rows; r++ {
			scale := e.scales[r]
			row := d[r*e.width : (r+1)*e.width]
			if scale == 0 {
				for i := range row {
					row[i] += 0
				}
				continue
			}
			if e.scheme == INT8 {
				q := e.q[r*e.width : (r+1)*e.width]
				for i := range row {
					row[i] += float32(float64(q[i]) * scale)
				}
			} else {
				for i := range row {
					row[i] += float32(float64(nibbleAt(e.nib, r*e.width+i)) * scale)
				}
			}
		}
	default:
		panic(fmt.Sprintf("quant: cannot decode scheme %v", e.scheme))
	}
}
