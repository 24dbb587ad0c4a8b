package distributed

import (
	"dmt/internal/comm"
	"dmt/internal/models"
	"dmt/internal/nn"
	"dmt/internal/quant"
	"dmt/internal/tensor"
)

// The over-arch gradient reduction is sliced into readiness-ordered buckets
// of whole parameters, each carried by ONE batched collective. The plan and
// the launch/finish pair below are shared by every rank-parallel schedule
// (schedule.go); a schedule only decides WHEN a bucket launches and
// finishes. None of that changes arithmetic: each parameter is still
// reduced by one collective whose sum accumulates in source-rank order,
// buckets never split a parameter (so compressed runs quantize exactly the
// tensors the sequential reference quantizes), and launch/wait order is
// identical on every rank.

// defaultBucketBytes is the per-bucket gradient payload cap when
// Config.BucketBytes is zero.
const defaultBucketBytes = 64 << 10

// gradBucket is one launch unit of the over-arch reduction: a run of whole
// parameters (indices into OverArchParams) that become ready at the same
// backward stage.
type gradBucket struct {
	params []int
	// afterBottom marks buckets whose gradients are final only once
	// BackwardBottom has run; the rest are final right after BackwardTop.
	afterBottom bool
	// idx is the bucket's position in launch order — the key into each
	// rank's persistent bucket arena (see launchBucket).
	idx int
}

// planBuckets groups the over-arch parameters into buckets in launch order:
// top-MLP parameters first (ready after BackwardTop), bottom-MLP parameters
// second (ready after BackwardBottom), each group greedily packed up to
// bucketBytes. The plan depends only on the model architecture, so every
// rank computes the identical schedule.
func planBuckets(m *models.DMTDLRM, bucketBytes int) []gradBucket {
	if bucketBytes <= 0 {
		bucketBytes = defaultBucketBytes
	}
	all := m.OverArchParams()
	nBottom := len(m.BottomParams())
	var out []gradBucket
	pack := func(lo, hi int, afterBottom bool) {
		cur := gradBucket{afterBottom: afterBottom}
		bytes := 0
		for pi := lo; pi < hi; pi++ {
			sz := 4 * all[pi].Value.Len()
			if len(cur.params) > 0 && bytes+sz > bucketBytes {
				out = append(out, cur)
				cur = gradBucket{afterBottom: afterBottom}
				bytes = 0
			}
			cur.params = append(cur.params, pi)
			bytes += sz
		}
		if len(cur.params) > 0 {
			out = append(out, cur)
		}
	}
	pack(nBottom, len(all), false)
	pack(0, nBottom, true)
	for i := range out {
		out[i].idx = i
	}
	return out
}

// Buckets exposes the gradient-bucket launch plan as parameter-index groups
// in launch order — test and diagnostics hook.
func (tr *Trainer) Buckets() [][]int {
	out := make([][]int, len(tr.buckets))
	for i, b := range tr.buckets {
		out[i] = append([]int(nil), b.params...)
	}
	return out
}

// bucketArena is one rank's reusable bucket-assembly scratch. Reuse across
// steps is safe because every rank's buckets of step N are finished before
// a Run join that precedes the first launch of step N+1 (the exchange
// phase, or the next SPTT forward for carried buckets): no peer can still
// be reading last step's buffers. Within a step a peer reads them only
// after the Wait that received this rank's message for the bucket, and the
// message was sent after they were filled, so the mailbox orders the two.
type bucketArena struct {
	// vs[bi] holds, per parameter of bucket bi, this rank's fp32 part of
	// the reduction, exactly sized and built once in New: on the raw wire
	// the gradient snapshot that rides the batched message in place of a
	// per-step clone, on the compressed wire the decoded image of the
	// payload it sent — decoded once here, not once per receiver. Every
	// rank's finishBucket sums the G ranks' parts.
	vs [][]*tensor.Tensor
	// encs[bi] holds bucket bi's encoded payload slots (compressed path);
	// the Encoded values themselves come from quant's buffer pool.
	encs [][]*quant.Encoded
}

// pendingBucket is one in-flight gradient bucket: the single batched
// collective carrying every parameter of the bucket. Exactly one handle is
// set — h for the raw wire, hEnc for the compressed one. idx is the
// bucket's arena key.
type pendingBucket struct {
	params []int
	idx    int
	h      *comm.Pending[[][]*tensor.Tensor]
	hEnc   *comm.Pending[[][]*quant.Encoded]
}

// carry marks the bucket's handle as deliberately spanning a step boundary
// so the comm runtime's leak guards report it as pipelined, not leaked.
func (pb pendingBucket) carry() {
	if pb.h != nil {
		pb.h.Carry()
		return
	}
	pb.hEnc.Carry()
}

// launchBucket posts rank g's reduction of one gradient bucket on the world
// group — every parameter of the bucket rides a single batched AllGather
// message — and returns without waiting. On the raw wire the gradients are
// snapshotted into the rank's persistent arena before sending: collectives
// deliver by reference and p.Grad is overwritten while peers may still be
// reading. On the compressed wire each rank sends its contribution g + r
// and remembers the round-trip error r for the next step: the fused
// quant.EncodeResidual quantizes g + r straight into pooled wire buffers
// and leaves the refreshed error-feedback residual behind in the same pass,
// and the sender decodes the payload once into its arena image — what every
// receiver would reconstruct from it, since decoding is a pure function of
// the payload. Each parameter is still encoded separately, so bucket
// boundaries never change what the quantizer sees, and steady-state
// launches allocate nothing.
func (tr *Trainer) launchBucket(g int, params []*nn.Param, b gradBucket) pendingBucket {
	s := tr.cfg.Compression.Gradient
	c, a := tr.world[g], &tr.arenas[g]
	vs := a.vs[b.idx]
	if s == quant.None {
		for i, pi := range b.params {
			vs[i].CopyFrom(params[pi].Grad)
		}
		return pendingBucket{params: b.params, idx: b.idx, h: c.IAllGatherBatch(vs)}
	}
	encs := a.encs[b.idx]
	for i, pi := range b.params {
		encs[i] = quant.EncodeResidual(s, params[pi].Grad, tr.residuals[g][pi])
		encs[i].DecodeInto(vs[i])
	}
	return pendingBucket{params: b.params, idx: b.idx, hEnc: c.IAllGatherBatchEnc(encs)}
}

// finishBucket completes a launched bucket: waits for every rank's batch,
// then per parameter accumulates the ranks' fp32 parts in source-rank order
// directly into the parameter gradient, scaled to the global-batch mean.
// The parts are read from the peers' arenas: the raw wire delivers exactly
// those tensors by reference, and on the compressed wire each is the image
// its sender decoded at launch — bit for bit what DecodeInto/AddTo on the
// received payload would add, computed G times a step instead of G². So
// every rank obtains averages bit-identical to the sequential path's
// centralized ones. The received payloads carried the wire bytes and clock
// charges; they are released back to the wire-buffer pool unread. (The
// error-feedback residual was already refreshed at launch by
// EncodeResidual.)
func (tr *Trainer) finishBucket(params []*nn.Param, pb pendingBucket, invG float32) {
	var enc [][]*quant.Encoded
	if pb.h != nil {
		pb.h.Wait()
	} else {
		enc = pb.hEnc.Wait()
	}
	for i, pi := range pb.params {
		gd := params[pi].Grad
		gd.CopyFrom(tr.arenas[0].vs[pb.idx][i])
		for src := 1; src < len(tr.arenas); src++ {
			tensor.AddInPlace(gd, tr.arenas[src].vs[pb.idx][i])
		}
		tensor.ScaleInPlace(gd, invG)
	}
	for _, es := range enc {
		for _, e := range es {
			e.Release()
		}
	}
}
