package tensor

import "fmt"

// minArenaChunk is the smallest chunk an Arena allocates, in float32s.
const minArenaChunk = 1 << 12

// Arena hands out tensors from memory it keeps across uses: New carves each
// tensor's data from grow-only chunks and reuses a header (and its shape
// storage) per call, so once an arena has served one pass of a computation,
// repeating that pass allocates nothing. A chunk is never moved or resized,
// so a tensor stays valid until Reset; Reset rewinds the arena and every
// tensor it handed out may then be overwritten by the next pass. An Arena is
// not safe for concurrent use.
//
// A nil *Arena allocates every tensor on the heap, so code written against
// an arena runs unchanged for callers that have none.
type Arena struct {
	chunks [][]float32
	ci     int // chunk being carved
	off    int // first free element of chunks[ci]
	hdrs   []*Tensor
	nh     int // headers handed out since Reset
}

// Reset rewinds the arena: later calls reuse its memory from the start.
func (a *Arena) Reset() {
	if a == nil {
		return
	}
	a.ci, a.off, a.nh = 0, 0, 0
}

// New returns a zero-filled tensor with the given shape, valid until Reset.
func (a *Arena) New(shape ...int) *Tensor {
	if a == nil {
		return New(shape...)
	}
	n := checkShape(shape)
	t := a.header()
	t.shape = append(t.shape[:0], shape...)
	t.data = a.carve(n)
	clear(t.data)
	return t
}

// Reshape returns a view of t's data with a new shape of equal element
// count, as t.Reshape does, with the header taken from the arena.
func (a *Arena) Reshape(t *Tensor, shape ...int) *Tensor {
	if a == nil {
		return t.Reshape(shape...)
	}
	v := a.header()
	v.shape = reshapeDims(append(v.shape[:0], shape...), t)
	v.data = t.data
	return v
}

// header returns the next reusable tensor header.
func (a *Arena) header() *Tensor {
	if a.nh == len(a.hdrs) {
		a.hdrs = append(a.hdrs, &Tensor{})
	}
	t := a.hdrs[a.nh]
	a.nh++
	return t
}

// carve returns the next n elements, moving on to the first later chunk
// with room and appending a new chunk, at least twice the last one, when
// none has.
func (a *Arena) carve(n int) []float32 {
	for len(a.chunks) == 0 || a.off+n > len(a.chunks[a.ci]) {
		if len(a.chunks) > 0 {
			a.ci++
			a.off = 0
		}
		if a.ci == len(a.chunks) {
			size := minArenaChunk
			if len(a.chunks) > 0 {
				size = 2 * len(a.chunks[len(a.chunks)-1])
			}
			a.chunks = append(a.chunks, make([]float32, max(size, n)))
		}
	}
	d := a.chunks[a.ci][a.off : a.off+n : a.off+n]
	a.off += n
	return d
}

// reshapeDims resolves shape (at most one -1, inferred) against t's element
// count in place and returns it.
func reshapeDims(shape []int, t *Tensor) []int {
	infer := -1
	known := 1
	for i, d := range shape {
		if d == -1 {
			if infer >= 0 {
				panic("tensor: Reshape allows at most one -1 dimension")
			}
			infer = i
		} else {
			known *= d
		}
	}
	if infer >= 0 {
		if known == 0 || len(t.data)%known != 0 {
			panic(fmt.Sprintf("tensor: cannot infer dimension reshaping %v to %v", t.shape, shape))
		}
		shape[infer] = len(t.data) / known
	}
	if checkShape(shape) != len(t.data) {
		panic(fmt.Sprintf("tensor: Reshape %v to %v changes element count", t.shape, shape))
	}
	return shape
}
