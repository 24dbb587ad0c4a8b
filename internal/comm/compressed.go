package comm

import (
	"fmt"

	"dmt/internal/quant"
	"dmt/internal/tensor"
)

// Compressed-wire collectives. Two collectives carry quant-encoded payloads,
// one per training-side use of the reduced wire:
//
//   - IAlltoAllTensorsQ — SPTT step (f), the embedding exchange — encodes
//     each chunk once on the sender and decodes it on its one receiver.
//   - IAllGatherBatchEnc — the trainer's gradient buckets — gathers payloads
//     the caller has already encoded (quant.EncodeResidual, error feedback)
//     and leaves decoding to the receiver (see distributed/buckets.go).
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
// (the fused DecodeInto/AddTo, or nothing when the sender's decoded image
// is reachable in-process — the wire bytes are charged either way). The
// collective takes over the caller's reference on each payload; the resolver
// hands each receiver one reference per payload, which the receiver must
// Release after consuming.
func (c *Comm) IAllGatherBatchEnc(encs []*quant.Encoded) *Pending[[][]*quant.Encoded] {
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
	return newPending(c, func() [][]*quant.Encoded {
		out := make([][]*quant.Encoded, n)
		for src := 0; src < n; src++ {
			out[src] = c.recv(src).([]*quant.Encoded)
		}
		return out
	})
}
