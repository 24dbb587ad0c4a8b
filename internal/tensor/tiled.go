package tensor

import (
	"runtime"
	"sync"
)

// parallelThreshold is the rough flop count above which a multiply fans out
// over goroutines. Small multiplies (the common case in unit tests and tiny
// models) stay on the calling goroutine to avoid scheduling cost.
const parallelThreshold = 1 << 14

// Tile heights, in output rows. MatMul/MatMulAT rows stream the full b
// matrix, so modest tiles keep the fan-out balanced; MatMulBT tiles are a
// multiple of 4 so every full slab inside a tile takes the register-tiled
// 4-row kernel, exactly as in one whole-range call.
const (
	tileRowsMatMul = 8
	tileRowsBT     = 16
	tileSamplesPD  = 4
)

// runTiles executes body(lo, hi) over [0, units) cut into tiles of at most
// `tile` units, fanned out over workers with fixed ownership (tile t on
// worker t % workers). Tiles never share output elements and body is a
// row-range routine, so the result is bitwise identical to body(0, units)
// however the scheduler interleaves the workers. When the work estimate is
// under parallelThreshold, only one worker is available or there is a single
// tile, it makes that one call on the calling goroutine.
func runTiles(units, tile, work int, body func(lo, hi int)) {
	workers := runtime.GOMAXPROCS(0)
	tiles := (units + tile - 1) / tile
	if work < parallelThreshold || workers <= 1 || tiles <= 1 {
		if units > 0 {
			body(0, units)
		}
		return
	}
	if workers > tiles {
		workers = tiles
	}
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func(w int) {
			defer wg.Done()
			for t := w; t < tiles; t += workers {
				lo := t * tile
				hi := lo + tile
				if hi > units {
					hi = units
				}
				body(lo, hi)
			}
		}(w)
	}
	wg.Wait()
}
