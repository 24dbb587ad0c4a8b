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

// inline reports whether a multiply over `units` output units in tiles of
// `tile` runs on the calling goroutine: when the work estimate is under
// parallelThreshold, only one worker is available or there is a single
// tile. Each entry point then calls its row routine over the whole range
// itself, before building the closure runTiles would need, so the inline
// path allocates nothing.
func inline(units, tile, work int) bool {
	return work < parallelThreshold || runtime.GOMAXPROCS(0) <= 1 || units <= tile
}

// runTiles executes body(lo, hi) over [0, units) cut into tiles of at most
// `tile` units, fanned out over workers with fixed ownership (tile t on
// worker t % workers). Tiles never share output elements and body is a
// row-range routine, so the result is bitwise identical to body(0, units)
// however the scheduler interleaves the workers. Callers take the inline
// path instead when inline says so. (Running worker 0 on the calling
// goroutine would save one allocation per multiply, but it slowed the
// benchmark's train_dense, whose ranks multiply concurrently, by ≈ 7 % on
// a 2-proc Xeon.)
func runTiles(units, tile int, body func(lo, hi int)) {
	tiles := (units + tile - 1) / tile
	workers := min(runtime.GOMAXPROCS(0), tiles)
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			runWorker(w, workers, units, tile, body)
		}()
	}
	wg.Wait()
}

// runWorker runs worker w's tiles: t = w, w+workers, ….
func runWorker(w, workers, units, tile int, body func(lo, hi int)) {
	for lo := w * tile; lo < units; lo += workers * tile {
		body(lo, min(lo+tile, units))
	}
}
