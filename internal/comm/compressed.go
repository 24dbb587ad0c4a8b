package comm

import (
	"fmt"

	"dmt/internal/quant"
	"dmt/internal/tensor"
)

// Compressed-wire collectives: each variant encodes its payloads with a
// quant.Scheme before send and decodes on recv, so what travels through the
// mailboxes is the reduced representation and the traffic counters charge
// the wire size (2 bytes/element for fp16, ~1 for int8, ~0.5 for int4, plus
// one 4-byte scale per row for the linear schemes) instead of the raw
// 4 bytes/element.
//
// Scheme quant.None delegates to the raw by-reference path, so an
// uncompressed call through the Q variant is bitwise identical to — and as
// cheap as — the plain collective.
//
// Like the raw collectives, every Q collective also has a non-blocking I*Q
// form: encoding happens at issue time (on the sender, once), decoding at
// Wait time (per receiver), so the wire window between them can be hidden
// behind compute.
//
// Determinism is preserved: encoding happens once on the sender, Decode is a
// pure function of the payload, and reductions still accumulate in source
// rank order, so every rank of a compressed AllReduce obtains bit-identical
// results. A rank can also predict exactly what its peers will reconstruct
// from its own contribution via quant.Apply — the property the distributed
// trainer's error-feedback residuals rely on.
//
// Payload buffers are pooled (see quant.Encode): the sender retains one
// reference per receiver before posting, and each resolver releases its
// reference once the payload has been decoded or reduced into a tensor the
// caller owns. Reduce-style resolvers use the fused AddTo so no intermediate
// decoded tensor is ever materialized. Steady-state compressed collectives
// therefore run without per-step codec allocations.
//
// All of the above describes the Q collectives. IAllGatherBatchEnc only
// carries payloads; its one caller, the trainer's gradient buckets, decodes
// at the sender instead (see distributed/buckets.go).

// IAlltoAllTensorsQ posts quantized chunks and returns a handle resolving to
// the decoded chunks indexed by source rank. Nil chunks are delivered as
// nil, as in the raw variant.
func (c *Comm) IAlltoAllTensorsQ(s quant.Scheme, chunks []*tensor.Tensor) *Pending[[]*tensor.Tensor] {
	if s == quant.None {
		return c.IAlltoAllTensors(chunks)
	}
	n := c.g.size
	if len(chunks) != n {
		panic(fmt.Sprintf("comm: AlltoAllQ needs %d chunks, got %d", n, len(chunks)))
	}
	for d := 0; d < n; d++ {
		var enc *quant.Encoded
		nbytes := 0
		if chunks[d] != nil {
			// Ownership of the payload's single reference transfers to the
			// one receiver, which releases it after decoding.
			enc = quant.Encode(s, chunks[d])
			nbytes = enc.WireBytes()
		}
		c.send(d, enc, nbytes)
	}
	return newPending(c, func() []*tensor.Tensor {
		out := make([]*tensor.Tensor, n)
		for src := 0; src < n; src++ {
			if enc := c.recv(src).(*quant.Encoded); enc != nil {
				out[src] = enc.Decode()
				enc.Release()
			}
		}
		return out
	})
}

// AlltoAllTensorsQ is AlltoAllTensors over quantized payloads: chunks[j]
// travels to rank j at wire size and arrives decoded.
func (c *Comm) AlltoAllTensorsQ(s quant.Scheme, chunks []*tensor.Tensor) []*tensor.Tensor {
	c.checkIdle("AlltoAllTensorsQ")
	return c.IAlltoAllTensorsQ(s, chunks).Wait()
}

// IAllGatherQ posts x in quantized form and returns a handle resolving to
// the gathered, decoded tensors. The payload is encoded once and every
// receiver — including the sender itself — decodes its own copy, so all
// ranks see the same post-quantization values.
func (c *Comm) IAllGatherQ(s quant.Scheme, x *tensor.Tensor) *Pending[[]*tensor.Tensor] {
	if s == quant.None {
		return c.IAllGather(x)
	}
	n := c.g.size
	enc := quant.Encode(s, x)
	enc.Retain(n - 1) // one reference per receiver (the encode's own makes n)
	for d := 0; d < n; d++ {
		c.send(d, enc, enc.WireBytes())
	}
	return newPending(c, func() []*tensor.Tensor {
		out := make([]*tensor.Tensor, n)
		for src := 0; src < n; src++ {
			e := c.recv(src).(*quant.Encoded)
			out[src] = e.Decode()
			e.Release()
		}
		return out
	})
}

// AllGatherQ distributes x to every rank in quantized form.
func (c *Comm) AllGatherQ(s quant.Scheme, x *tensor.Tensor) []*tensor.Tensor {
	c.checkIdle("AllGatherQ")
	return c.IAllGatherQ(s, x).Wait()
}

// IAllGatherBatchQ is IAllGatherBatch over a quantized wire. Each tensor in
// the batch is encoded separately — preserving its own row structure, which
// is what keeps bucketed compressed reductions bitwise identical to
// per-tensor ones — and every receiver decodes its own copies.
func (c *Comm) IAllGatherBatchQ(s quant.Scheme, xs []*tensor.Tensor) *Pending[[][]*tensor.Tensor] {
	if s == quant.None {
		return c.IAllGatherBatch(xs)
	}
	encs := make([]*quant.Encoded, len(xs))
	for i, x := range xs {
		encs[i] = quant.Encode(s, x)
	}
	n := c.g.size
	resolve := c.postGatherBatchEnc(encs)
	return newPending(c, func() [][]*tensor.Tensor {
		es := resolve()
		out := make([][]*tensor.Tensor, n)
		for src := 0; src < n; src++ {
			ts := make([]*tensor.Tensor, len(es[src]))
			for i, e := range es[src] {
				ts[i] = e.Decode()
				e.Release()
			}
			out[src] = ts
		}
		return out
	})
}

// IAllGatherBatchEnc gathers pre-encoded payloads: the whole batch travels
// to every rank as one mailbox message, and the handle resolves to the raw
// payloads indexed [src][i], leaving what to do with them to the receiver
// (the fused DecodeInto/AddTo, or nothing when the sender's decoded image
// is reachable in-process — the wire bytes are charged either way). The
// collective takes over the caller's reference on each payload; the resolver
// hands each receiver one reference per payload, which the receiver must
// Release after consuming.
func (c *Comm) IAllGatherBatchEnc(encs []*quant.Encoded) *Pending[[][]*quant.Encoded] {
	return newPending(c, c.postGatherBatchEnc(encs))
}

// postGatherBatchEnc posts the encoded batch to every rank and returns the
// resolver, shared by IAllGatherBatchEnc and IAllGatherBatchQ (each wraps it
// in its own single Pending — handles cannot nest, Wait order is a ticket).
func (c *Comm) postGatherBatchEnc(encs []*quant.Encoded) func() [][]*quant.Encoded {
	n := c.g.size
	bytes := 0
	for _, e := range encs {
		e.Retain(n - 1) // with the caller's reference: one per receiver
		bytes += e.WireBytes()
	}
	msg := any(encs) // boxed once, not once per destination
	for d := 0; d < n; d++ {
		c.send(d, msg, bytes)
	}
	return func() [][]*quant.Encoded {
		out := make([][]*quant.Encoded, n)
		for src := 0; src < n; src++ {
			out[src] = c.recv(src).([]*quant.Encoded)
		}
		return out
	}
}

// IAllReduceSumQ posts x in quantized form and returns a handle resolving
// to the rank-ordered sum of every rank's quantized contribution. Because
// each contribution is quantized identically for every receiver, all ranks
// obtain bit-identical sums.
func (c *Comm) IAllReduceSumQ(s quant.Scheme, x *tensor.Tensor) *Pending[*tensor.Tensor] {
	if s == quant.None {
		return c.IAllReduceSum(x)
	}
	n := c.g.size
	enc := quant.Encode(s, x)
	enc.Retain(n - 1)
	for d := 0; d < n; d++ {
		c.send(d, enc, enc.WireBytes())
	}
	return newPending(c, func() *tensor.Tensor {
		// The src-0 decode allocates this receiver's own result buffer; the
		// remaining contributions accumulate into it via the fused AddTo.
		e := c.recv(0).(*quant.Encoded)
		out := e.Decode()
		e.Release()
		for src := 1; src < n; src++ {
			e := c.recv(src).(*quant.Encoded)
			e.AddTo(out)
			e.Release()
		}
		return out
	})
}

// AllReduceSumQ sums every rank's quantized contribution in rank order.
func (c *Comm) AllReduceSumQ(s quant.Scheme, x *tensor.Tensor) *tensor.Tensor {
	c.checkIdle("AllReduceSumQ")
	return c.IAllReduceSumQ(s, x).Wait()
}

// IReduceScatterSumQ posts quantized chunks and returns a handle resolving
// to the rank-ordered sum of the decoded chunks addressed to this rank.
// Unlike the AlltoAll variants, every chunk must be non-nil: the reduction
// needs a contribution from every rank.
func (c *Comm) IReduceScatterSumQ(s quant.Scheme, chunks []*tensor.Tensor) *Pending[*tensor.Tensor] {
	if s == quant.None {
		return c.IReduceScatterSum(chunks)
	}
	n := c.g.size
	if len(chunks) != n {
		panic(fmt.Sprintf("comm: ReduceScatterQ needs %d chunks, got %d", n, len(chunks)))
	}
	for d := 0; d < n; d++ {
		if chunks[d] == nil {
			panic(fmt.Sprintf("comm: ReduceScatterQ chunk for rank %d is nil", d))
		}
		enc := quant.Encode(s, chunks[d])
		c.send(d, enc, enc.WireBytes())
	}
	return newPending(c, func() *tensor.Tensor {
		e := c.recv(0).(*quant.Encoded)
		out := e.Decode()
		e.Release()
		for src := 1; src < n; src++ {
			e := c.recv(src).(*quant.Encoded)
			e.AddTo(out)
			e.Release()
		}
		return out
	})
}

// ReduceScatterSumQ is ReduceScatterSum over quantized chunks.
func (c *Comm) ReduceScatterSumQ(s quant.Scheme, chunks []*tensor.Tensor) *tensor.Tensor {
	c.checkIdle("ReduceScatterSumQ")
	return c.IReduceScatterSumQ(s, chunks).Wait()
}

// BroadcastQ returns root's x quantized on every rank. The root decodes its
// own payload too, so all ranks — root included — hold bit-identical values.
func (c *Comm) BroadcastQ(s quant.Scheme, x *tensor.Tensor, root int) *tensor.Tensor {
	if s == quant.None {
		return c.Broadcast(x, root)
	}
	c.checkIdle("BroadcastQ")
	if c.rank == root {
		enc := quant.Encode(s, x)
		enc.Retain(c.g.size - 1)
		for d := 0; d < c.g.size; d++ {
			if d != root {
				c.send(d, enc, enc.WireBytes())
			}
		}
		out := enc.Decode()
		enc.Release()
		return out
	}
	e := c.recv(root).(*quant.Encoded)
	out := e.Decode()
	e.Release()
	return out
}
