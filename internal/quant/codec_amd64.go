package quant

import "dmt/internal/tensor"

// On a CPU with AVX2 the fp16 encode runs 8 lanes at a time in tensor's
// vector routines, over the whole blocks of 8, and the scalar loop takes
// the rest.
func init() {
	if tensor.HasAVX2() {
		encodeHalves, encodeHalvesResidual = encodeHalvesAVX2, encodeHalvesResidualAVX2
	}
}

func encodeHalvesAVX2(h []uint16, v []float32) {
	n := len(v) &^ 7
	tensor.Float16SatAVX2(h[:n], v[:n])
	encodeHalvesRef(h[n:len(v)], v[n:])
}

func encodeHalvesResidualAVX2(h []uint16, g, r []float32) {
	n := len(g) &^ 7
	tensor.Float16SatResidualAVX2(h[:n], g[:n], r[:n])
	encodeHalvesResidualRef(h[n:len(g)], g[n:], r[n:len(g)])
}
