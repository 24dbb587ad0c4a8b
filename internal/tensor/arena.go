package tensor

import (
	"fmt"
	"runtime"
	"sync"
	"unsafe"
)

// minArenaChunk is the smallest chunk an Arena allocates, in float32s.
const minArenaChunk = 1 << 12

// Arena hands out tensors from memory it keeps across uses: New carves each
// tensor's data from grow-only chunks and reuses a header (and its shape
// storage) per call, so once an arena has served one pass of a computation,
// repeating that pass allocates nothing. A chunk is never moved or resized
// while a pass runs, so a tensor stays valid until Reset; Reset rewinds the
// arena and every tensor it handed out may then be overwritten by the next
// pass. An Arena is not safe for concurrent use.
//
// An arena holds its memory for its whole life, so it is sized to what a
// pass needs and no more: a pass that outgrows the first chunk spills into
// later ones, and the Reset after it replaces every later chunk by one
// sized exactly to the largest spill seen, with none of the doubling's
// slack. A repeated pass then fits the first chunk and that one exactly.
//
// A nil *Arena allocates every tensor on the heap, so code written against
// an arena runs unchanged for callers that have none.
type Arena struct {
	chunks [][]float32
	ci     int // chunk being carved
	off    int // first free element of chunks[ci]
	hdrs   []*Tensor
	nh     int // headers handed out since Reset
	spill  int // elements carved past chunks[0] since Reset
	// maxSpill is the largest spill of any pass, what chunks[1] holds once
	// a Reset has sized it.
	maxSpill int
}

// Reset rewinds the arena: later calls reuse its memory, data and
// headers, from the start. After a pass that spilled past its chunks'
// capacity, or into memory with slack, the chunks past the first become
// one of exactly the largest spill. The headers let go of their data, so a
// Reshape view of memory the arena does not hold (a pass's input) does not
// keep that memory alive until the header's next use.
func (a *Arena) Reset() {
	if a == nil {
		return
	}
	a.Rewind()
	if ArenaCheck {
		a.hdrs = nil // a stale header keeps its poisoned data
	} else {
		for _, h := range a.hdrs[:a.nh] {
			h.data = nil
		}
	}
	a.nh = 0
}

// Rewind is Reset for the arena's data alone: later tensors reuse its
// memory from the start, while every header handed out since the last
// Reset keeps its shape and is not handed out again. It is for a pass
// whose later half needs none of its earlier half's data, only views of
// memory the arena does not hold.
func (a *Arena) Rewind() {
	if a == nil {
		return
	}
	if ArenaCheck {
		a.poison()
	}
	if a.spill > a.maxSpill || (a.ci > 0 && len(a.chunks[1]) != a.maxSpill) {
		a.maxSpill = max(a.maxSpill, a.spill)
		clear(a.chunks[1:]) // drop the old chunks: the array still holds them
		a.chunks = append(a.chunks[:1], make([]float32, a.maxSpill))
	}
	a.ci, a.off, a.spill = 0, 0, 0
}

// New returns a zero-filled tensor with the given shape, valid until Reset
// or Rewind.
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

// Rows returns a view of rows [lo, hi) of t, as t.Rows does, with the
// header taken from the arena.
func (a *Arena) Rows(t *Tensor, lo, hi int) *Tensor {
	if a == nil {
		return t.Rows(lo, hi)
	}
	w := checkShape(t.shape[1:])
	v := a.header()
	v.shape = append(append(v.shape[:0], hi-lo), t.shape[1:]...)
	v.data = t.data[lo*w : hi*w]
	return v
}

// DropViews lets every header handed out since the last Reset that views
// memory the arena does not hold, a Reshape of a pass's input, let go of
// it, so the arena keeps that memory alive no longer than the pass that
// used it. Views of the arena's own memory are left as they are.
func (a *Arena) DropViews() {
	if a == nil {
		return
	}
	for _, h := range a.hdrs[:a.nh] {
		if cap(h.data) > 0 && !a.holds(h.data) {
			h.data = nil
		}
	}
}

// holds reports whether d lies in one of the arena's chunks.
func (a *Arena) holds(d []float32) bool {
	p := uintptr(unsafe.Pointer(unsafe.SliceData(d)))
	for _, c := range a.chunks {
		lo := uintptr(unsafe.Pointer(unsafe.SliceData(c)))
		if p >= lo && p < lo+uintptr(cap(c))*4 {
			return true
		}
	}
	return false
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
	if a.ci > 0 {
		a.spill += n
	}
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

// Scratch lends the process's passes their arenas: a pass that waits on
// nothing between Get and Put (the over-arch's forward and backward on a
// rank, an SPTT rank's pooling or re-laying of a block) takes one, so the
// memory one rank's pass used serves the next rank's, and the process keeps
// as many pass arenas as it has CPUs, not one per rank.
var Scratch ArenaPool

// ArenaPool lends arenas to passes that need one only while they run, so
// the memory one pass used serves the next, whichever caller runs it. It
// keeps at most GOMAXPROCS arenas, as many passes as can compute at once:
// a pass that finds none free gets a new one, and Put drops an arena the
// pool has no room for. Put resets the arena, so nothing it handed out may
// be used after Put. An ArenaPool is safe for concurrent use; its zero
// value is empty and ready to use.
type ArenaPool struct {
	mu   sync.Mutex
	free []*Arena
}

// Get returns the arena most recently put back, or a new one.
func (p *ArenaPool) Get() *Arena {
	p.mu.Lock()
	defer p.mu.Unlock()
	if n := len(p.free); n > 0 {
		a := p.free[n-1]
		p.free = p.free[:n-1]
		return a
	}
	return new(Arena)
}

// Put resets a and returns it to the pool, or drops it when the pool
// already keeps GOMAXPROCS arenas.
func (p *ArenaPool) Put(a *Arena) {
	a.Reset()
	keep := runtime.GOMAXPROCS(0)
	p.mu.Lock()
	if len(p.free) < keep {
		p.free = append(p.free, a)
	}
	p.mu.Unlock()
}
