package comm

import (
	"fmt"

	"dmt/internal/quant"
	"dmt/internal/tensor"
)

// Compressed-wire collectives. Three collectives carry quant-encoded
// payloads:
//
//   - IAlltoAllTensorsQ — SPTT step (f), the embedding exchange — encodes
//     each chunk once on the sender and decodes it on its one receiver.
//   - IAlltoAllBatchEnc — the trainer's gradient buckets — sends each rank
//     a batch of payloads the caller has already encoded
//     (quant.EncodeResidual, error feedback) and leaves decoding to the
//     receiver (see distributed/buckets.go).
//   - IAllGatherBatchEnc gathers pre-encoded batches to every rank.
//
// What travels through the mailboxes is the reduced representation, and the
// traffic counters charge its wire size (2 bytes/element for fp16, ~1 for
// int8, ~0.5 for int4, plus one 4-byte scale per row for the linear schemes)
// instead of the raw 4 bytes/element; the same wire bytes price the
// transfer on the virtual clock.
//
// Determinism is preserved: encoding happens once on the sender and decoding
// is a pure function of the payload, so every receiver reconstructs the same
// values — exactly what quant.Apply predicts locally.
//
// Payload buffers are pooled (see quant.Encode): the sender hands each
// receiver one reference, and each receiver releases it once the payload has
// been consumed, so steady-state compressed collectives run without
// per-step codec allocations.

// IAlltoAllTensorsQ posts quantized chunks and returns a handle resolving to
// the decoded chunks indexed by source rank. Nil chunks are delivered as
// nil, as in the raw variant; scheme quant.None is the raw by-reference
// IAlltoAllTensors.
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

// IAllGatherBatchEnc gathers pre-encoded payloads: the whole batch travels
// to every rank as one mailbox message, and the handle resolves to the raw
// payloads indexed [src][i], leaving what to do with them to the receiver
// (the fused DecodeInto/AddTo). The collective takes over the caller's
// reference on each payload; the resolver hands each receiver one
// reference per payload, which the receiver must Release after consuming.
func (c *Comm) IAllGatherBatchEnc(encs []*quant.Encoded) *Pending[[][]*quant.Encoded] {
	for _, e := range encs {
		e.Retain(c.g.size - 1) // with the caller's reference: one per receiver
	}
	return iAllGatherBatch(c, encs, (*quant.Encoded).WireBytes)
}

// IAlltoAllBatchEnc posts parts[d], a batch of pre-encoded payloads, to rank
// d as ONE mailbox message charged the batch's wire bytes, and returns a
// handle resolving to the received batches indexed [src][i]. Each payload's
// single reference passes to its one receiver, which must Release it after
// consuming it. Every rank must pass batches of the same length for a given
// destination — the layout is agreed, as in a reduce-scatter — so a rank
// whose own batch is empty receives nothing, and an empty batch is neither
// sent nor received. The message is a pointer to parts[d], read when the
// receiver waits, so the caller must leave parts as it is until every
// receiver has waited, as it leaves the payloads. The batches land in got,
// of length G, which the handle
// resolves to: a caller that posts the same exchange every step passes the
// same got each time and allocates no result slice (nil allocates one).
func (c *Comm) IAlltoAllBatchEnc(parts, got [][]*quant.Encoded) *Pending[[][]*quant.Encoded] {
	n := c.g.size
	if len(parts) != n {
		panic(fmt.Sprintf("comm: AlltoAllBatchEnc needs %d batches, got %d", n, len(parts)))
	}
	for d, es := range parts {
		if len(es) == 0 {
			continue
		}
		bytes := 0
		for _, e := range es {
			bytes += e.WireBytes()
		}
		c.send(d, &parts[d], bytes) // a pointer boxes with no allocation
	}
	want := len(parts[c.rank])
	if got == nil {
		got = make([][]*quant.Encoded, n)
	} else if len(got) != n {
		panic(fmt.Sprintf("comm: AlltoAllBatchEnc result of %d batches for %d ranks", len(got), n))
	}
	return newPending(c, func() [][]*quant.Encoded {
		out := got
		clear(out)
		if want == 0 {
			return out
		}
		for src := 0; src < n; src++ {
			out[src] = *c.recv(src).(*[]*quant.Encoded)
			if len(out[src]) != want {
				panic(fmt.Sprintf("comm: rank %d got a batch of %d payloads from rank %d, sent itself %d (batch layouts must agree)",
					c.rank, len(out[src]), src, want))
			}
		}
		return out
	})
}
