package quant

import (
	"math/bits"
	"sync"
)

// encodedPool recycles Encoded payload buffers. A compressed collective
// encodes once per step per bucket; without pooling every Encode allocates
// fresh f16/q/nib/scales slices that die within the step, and at serving QPS
// that allocator churn — not the network — becomes the binding constraint.
// With the pool, steady-state encode is allocation-free: buffers grow to the
// bucket's high-water mark once and are reused every step after.
//
// Lifecycle: Encode (and EncodeResidual) hand out an Encoded holding one
// reference. A sender fanning the payload out to n receivers calls Retain(n)
// before delivery and Release once it is done with its own reference; each
// receiver calls Release after consuming the payload (DecodeInto/AddTo copy
// out, so the buffers are free to be reused afterwards). When the count hits
// zero the buffers go back to the pool. Dropping an Encoded without Release
// is always safe — it simply falls to the garbage collector like any other
// value, and the pool never sees it.
//
// One pool per size class (bits.Len of the element count): buffers keep
// their capacity across reuse, so a single pool would hand the largest
// gradient's buffers to 1 KB AlltoAll chunks and back until every pooled
// payload had grown to the largest one. Within a class capacity stays
// below twice what the payload needs.
var encodedPools [bits.UintSize + 1]sync.Pool

func getEncoded(s Scheme, n int) *Encoded {
	class := uint8(bits.Len(uint(n)))
	e, _ := encodedPools[class].Get().(*Encoded)
	if e == nil {
		e = new(Encoded)
	}
	e.class = class
	e.scheme = s
	e.refs.Store(1)
	e.pooled = true
	return e
}

// Retain adds n references to the payload, one per receiver that will
// Release it. Call before handing the payload to the receivers.
func (e *Encoded) Retain(n int) {
	if e == nil || !e.pooled {
		return
	}
	e.refs.Add(int32(n))
}

// Release drops one reference. When the last reference is dropped the
// payload's buffers return to the pool for reuse; the Encoded must not be
// touched afterwards. Extra Releases after the count reaches zero are
// ignored rather than corrupting the pool.
func (e *Encoded) Release() {
	if e == nil || !e.pooled {
		return
	}
	if e.refs.Add(-1) == 0 {
		e.recycle()
	}
}

// recycle resets the payload for reuse, keeping slice capacity (the whole
// point of the pool) but dropping the raw tensor reference so a pooled
// None passthrough cannot pin a tensor alive.
func (e *Encoded) recycle() {
	e.raw = nil
	e.shape = e.shape[:0]
	e.rows, e.width = 0, 0
	e.f16 = e.f16[:0]
	e.q = e.q[:0]
	e.nib = e.nib[:0]
	e.scales = e.scales[:0]
	encodedPools[e.class].Put(e)
}

// grow returns s resized to n elements, reusing capacity when it suffices.
// Contents are unspecified: callers must overwrite (or explicitly zero)
// every element, since a recycled buffer carries stale values where a fresh
// make() would carry zeros.
func grow[T any](s []T, n int) []T {
	if cap(s) >= n {
		return s[:n]
	}
	return make([]T, n)
}
