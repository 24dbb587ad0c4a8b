package comm

import (
	"fmt"

	"dmt/internal/tensor"
)

// Non-blocking collectives. Each I* variant posts its sends immediately —
// in this in-process runtime a post never blocks, because mailboxes are
// unbounded — and returns a Pending handle whose Wait() drains the receives
// and performs any reduction. Between issue and Wait the caller is free to
// do rank-local compute; that window is the "hidden" communication time the
// pipelined training schedule is built on.
//
// Determinism is unchanged: Wait receives in source-rank order and
// reductions accumulate in rank order, so an I* collective is bitwise
// identical to its blocking form. The blocking collectives are in fact
// implemented as I*-plus-immediate-Wait.

// Pending is an in-flight collective of result type T. Wait must be called
// by the issuing rank's own goroutine (or a later goroutine for the same
// rank, sequenced by a Run join), and handles on one group must be waited
// in issue order with no other collective on that group in between —
// per-pair mailbox FIFO is the wire format, so waiting out of order would
// hand one collective another's payloads. Wait enforces the order and
// panics on a violation. Wait is idempotent: the result is cached.
type Pending[T any] struct {
	c      *Comm
	ticket uint64
	// issued is the rank's virtual time at issue, where the handle's hidden
	// window starts.
	issued  int64
	fn      func() T
	done    bool
	carried bool
	v       T
}

// Carry marks the handle as deliberately left in flight across a logical
// step boundary. It does not change Wait semantics — the handle must still
// be waited by this rank (or a later goroutine for the same rank, sequenced
// by a Run join), in issue order, before any blocking collective runs on
// the group. What it changes is bookkeeping: the rank's idle guards
// (checkIdle, AssertDrained) report carried handles as pipelined rather
// than leaked, so a cross-step schedule can hold gradient buckets open into
// the next step without tripping the leak diagnostics.
func (p *Pending[T]) Carry() {
	if p.done || p.carried {
		return
	}
	p.carried = true
	p.c.carried++
}

func newPending[T any](c *Comm, fn func() T) *Pending[T] {
	p := &Pending[T]{c: c, ticket: c.issueSeq, issued: c.clock.ns.Load(), fn: fn}
	c.issueSeq++
	return p
}

// Wait completes the collective: it blocks until every peer's payload has
// arrived, finishes any reduction, and returns the result. The issue-to-Wait
// window is credited to the rank's hidden-communication counter — minus any
// part already credited to an earlier handle, so concurrently in-flight
// collectives (the overlap engine posts several gradient buckets at once)
// contribute the UNION of their windows, never more than the rank actually
// executed. The receives then advance the rank's clock to any later message
// ready-time and credit that gap to its exposed counter.
func (p *Pending[T]) Wait() T {
	if p.done {
		return p.v
	}
	c := p.c
	if p.carried {
		p.carried = false
		c.carried--
	}
	if p.ticket != c.waitSeq {
		panic(fmt.Sprintf("comm: rank %d waited collective #%d while #%d is still pending (handles must be waited in issue order)",
			c.rank, p.ticket, c.waitSeq))
	}
	c.waitSeq++
	// The hidden frontier lives on the rank's shared Clock, so the union also
	// spans handles on different groups of one network.
	start := max(p.issued, c.clock.hiddenFrontierNS)
	if now := c.clock.ns.Load(); now > start {
		c.hiddenNS += now - start
		c.clock.hiddenFrontierNS = now
	}
	p.v = p.fn()
	p.fn = nil
	p.done = true
	return p.v
}

// IAlltoAllTensors posts chunks[j] to rank j and returns a handle that
// resolves to the received chunks indexed by source rank.
func (c *Comm) IAlltoAllTensors(chunks []*tensor.Tensor) *Pending[[]*tensor.Tensor] {
	return IAlltoAll(c, chunks, tensorBytes)
}

// IAlltoAll is the one all-to-all: chunks[d] goes to rank d by reference,
// charged the size(chunks[d]) bytes the caller says its wire encoding
// takes, and the handle resolves to the received chunks indexed by source
// rank. A sender leaves what a chunk refers to as it is, and a receiver
// reads it in place, until the Run that carried it has joined.
func IAlltoAll[T any](c *Comm, chunks []T, size func(T) int) *Pending[[]T] {
	n := c.g.size
	if len(chunks) != n {
		panic(fmt.Sprintf("comm: AlltoAll needs %d chunks, got %d", n, len(chunks)))
	}
	for d := 0; d < n; d++ {
		c.send(d, chunks[d], size(chunks[d]))
	}
	return newPending(c, func() []T {
		out := make([]T, n)
		for s := 0; s < n; s++ {
			out[s] = c.recv(s).(T)
		}
		return out
	})
}

// IAllReduceSum posts x to every rank and returns a handle resolving to the
// elementwise sum of every rank's contribution, accumulated in rank order
// (bit-identical on all ranks).
func (c *Comm) IAllReduceSum(x *tensor.Tensor) *Pending[*tensor.Tensor] {
	n := c.g.size
	for d := 0; d < n; d++ {
		c.send(d, x, tensorBytes(x))
	}
	return newPending(c, func() *tensor.Tensor {
		out := c.recv(0).(*tensor.Tensor).Clone()
		for s := 1; s < n; s++ {
			tensor.AddInPlace(out, c.recv(s).(*tensor.Tensor))
		}
		return out
	})
}

// IAllGatherBatch posts the whole slice xs to every rank as ONE mailbox
// message and returns a handle resolving to the gathered slices, indexed
// [src][i]. The batched form exists for gradient bucketing: b tensors
// travel as one message instead of b, amortizing per-message
// synchronization (the in-process analog of coalescing small gradients
// into one NCCL launch). Tensors are delivered by reference.
func (c *Comm) IAllGatherBatch(xs []*tensor.Tensor) *Pending[[][]*tensor.Tensor] {
	return iAllGatherBatch(c, xs, tensorBytes)
}

// iAllGatherBatch is the one batched all-gather: xs travels to every rank
// as one message charged the sum of size over its payloads, and the handle
// resolves to the gathered batches indexed [src][i].
func iAllGatherBatch[T any](c *Comm, xs []T, size func(T) int) *Pending[[][]T] {
	n := c.g.size
	bytes := 0
	for _, x := range xs {
		bytes += size(x)
	}
	msg := any(xs) // boxed once, not once per destination
	for d := 0; d < n; d++ {
		c.send(d, msg, bytes)
	}
	return newPending(c, func() [][]T {
		out := make([][]T, n)
		for s := 0; s < n; s++ {
			out[s] = c.recv(s).([]T)
		}
		return out
	})
}
