//go:build exhaustive

package quant

import (
	"math"
	"runtime"
	"sync"
	"testing"
)

// TestFloat16SatExhaustive is the `make fp16-exhaustive` check: over all
// 2³² float32 inputs, the scalar toFloat16Sat and the selected encodeHalves
// (the AVX2 encoder where the CPU has AVX2) give toFloat16SatRef's half,
// and the selected encodeHalvesResidual gives its scalar reference's half
// and residual, all compared by bits, NaN payloads included. The residual
// is −0, so v = g + r is every input itself (NaNs quieted). It takes about
// a minute a core, so it compiles only under the exhaustive build tag,
// never in `make test`; the inputs are split across GOMAXPROCS workers.
func TestFloat16SatExhaustive(t *testing.T) {
	const chunk = 1 << 16
	chunks := make(chan uint32)
	var wg sync.WaitGroup
	var once sync.Once
	for range runtime.GOMAXPROCS(0) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			in := make([]float32, chunk)
			h, hRes := make([]uint16, chunk), make([]uint16, chunk)
			r, rRef := make([]float32, chunk), make([]float32, chunk)
			negZero := float32(math.Copysign(0, -1))
			for c := range chunks {
				for i := range in {
					in[i] = math.Float32frombits(c*chunk + uint32(i))
					r[i], rRef[i] = negZero, negZero
				}
				encodeHalves(h, in)
				encodeHalvesResidual(hRes, in, r)
				for i, v := range in {
					want := toFloat16SatRef(v)
					if s := toFloat16Sat(v); s != want || h[i] != want || hRes[i] != want {
						once.Do(func() {
							t.Errorf("%#08x: toFloat16Sat %#04x, encodeHalves %#04x, encodeHalvesResidual %#04x; want %#04x",
								math.Float32bits(v), s, h[i], hRes[i], want)
						})
					}
				}
				encodeHalvesResidualRef(hRes, in, rRef)
				for i := range in {
					if math.Float32bits(r[i]) != math.Float32bits(rRef[i]) {
						once.Do(func() {
							t.Errorf("%#08x: encodeHalvesResidual leaves residual %#08x, the scalar reference %#08x",
								math.Float32bits(in[i]), math.Float32bits(r[i]), math.Float32bits(rRef[i]))
						})
					}
				}
			}
		}()
	}
	for c := uint32(0); c < 1<<32/chunk; c++ {
		chunks <- c
	}
	close(chunks)
	wg.Wait()
	if !t.Failed() {
		t.Logf("all 2^32 float32 inputs: every encoder matches the reference")
	}
}
