package distributed

import (
	"dmt/internal/comm"
	"dmt/internal/models"
	"dmt/internal/nn"
	"dmt/internal/quant"
	"dmt/internal/tensor"
)

// The over-arch gradient reduction is sliced into readiness-ordered buckets
// of whole parameters, and every over-arch row has exactly one owner rank.
// Per bucket, each rank encodes its gradient (with error feedback on a
// compressed wire) and sends each owner only that owner's rows, in ONE
// batched all-to-all (comm.IAlltoAllBatchEnc). The owner decodes the G
// parts it received and sums them in ascending source rank, scaled to the
// global-batch mean. Once every bucket has landed, each rank runs Adam on
// the rows it owns, with moments for those rows alone, and all-gathers its
// updated weights in fp32: one batched message for the bottom MLP's rows
// and one for the top MLP's. That is stage 1 of ZeRO (Rajbhandari et al.,
// arXiv 1910.02054) on the data-parallel over-arch of §3.2.
//
// The plan, the ownership and the launch/finish/step/gather steps below are
// shared by every rank-parallel schedule (schedule.go); a schedule only
// decides WHEN a bucket launches and finishes and where the weight gathers
// are waited. None of that changes arithmetic: each rank encodes exactly
// the tensors the sequential reference quantizes (row segments encode to
// the bits and residuals their rows get inside the whole parameter), each
// element's gradient is the source-rank-ordered float32 sum the reference
// forms, Adam is elementwise, and the weights travel back in fp32, so every
// replica holds the reference's bits. Launch and wait order is identical on
// every rank.
//
// Wire bytes per rank and step, for N over-arch elements at G ranks: the
// reduce sends (G−1)/G·N elements at the gradient wire's width (4 B fp32,
// 2 B fp16, 1 B plus a 4-byte scale per row int8) and the gather (G−1)/G·N
// elements at 4 B. An all-gather of every rank's whole bucket would send
// (G−1)·N at the wire's width: at G = 8, 2.7× these bytes on fp16 and 4×
// on fp32, and every rank would sum all G parts and step every row.

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
	// rank's shard (see rankShard).
	idx int
	// segs[o] lists owner o's rows of the bucket, in parameter order
	// (assignOwners).
	segs [][]rowSeg
}

// The two readiness groups, in the order their weight gathers are posted
// and waited: the bottom MLP's rows are read first, by ForwardBottom.
const (
	bottomGroup = iota
	topGroup
)

func (b gradBucket) group() int {
	if b.afterBottom {
		return bottomGroup
	}
	return topGroup
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

// rowSeg is one owner's contiguous rows of one over-arch parameter: the
// elements [lo, hi) of the flattened parameter, width to a row. A
// parameter's rows are the ones int8's per-row scales see — the last
// dimension of a matrix, the whole of a vector — so a segment encodes to
// exactly the bits and residual its rows get inside the whole parameter.
type rowSeg struct {
	param, lo, hi, width int
}

// view wraps the segment's elements of t, a tensor shaped like the
// parameter, as a (rows, width) tensor sharing t's storage.
func (s rowSeg) view(t *tensor.Tensor) *tensor.Tensor {
	return tensor.FromSlice(t.Data()[s.lo:s.hi], (s.hi-s.lo)/s.width, s.width)
}

// assignOwners gives every over-arch row one owner rank. Within each
// readiness group the group's rows, in plan order, are dealt to ranks
// 0…G−1 in contiguous runs of about equal element count: a row goes to the
// rank whose share of the group holds the row's midpoint. So every rank
// owns about 1/G of each group, the largest weights are spread over several
// owners, and the assignment, like the plan, depends only on the
// architecture and G.
func assignOwners(plan []gradBucket, all []*nn.Param, g int) {
	for _, grp := range []int{topGroup, bottomGroup} {
		total := 0
		for _, b := range plan {
			if b.group() == grp {
				for _, pi := range b.params {
					total += all[pi].Value.Len()
				}
			}
		}
		done := 0
		for bi := range plan {
			b := &plan[bi]
			if b.group() != grp {
				continue
			}
			b.segs = make([][]rowSeg, g)
			for _, pi := range b.params {
				v := all[pi].Value
				w := v.Len()
				if v.Rank() >= 2 {
					w = v.Dim(-1)
				}
				for lo := 0; lo < v.Len(); lo += w {
					o := (2*done + w) * g / (2 * total)
					if segs := b.segs[o]; len(segs) > 0 && segs[len(segs)-1].param == pi {
						segs[len(segs)-1].hi += w
					} else {
						b.segs[o] = append(segs, rowSeg{param: pi, lo: lo, hi: lo + w, width: w})
					}
					done += w
				}
			}
		}
	}
}

// segView is one rank's views of one row segment: its replica's weight and
// gradient rows, and either its error-feedback residual rows (compressed
// wire) or its send snapshot (raw wire).
type segView struct {
	value, grad, resid, snap *tensor.Tensor
}

// rankShard is one rank's side of the ownership plan, built once in New, so
// steady-state launches, reductions and gathers allocate no tensor.
//
// Reuse across steps is safe without a barrier. A peer reads this rank's
// snapshot and send slots of a bucket while it finishes the bucket, and it
// sends its gathered weights only after finishing every bucket. This rank
// refills them at its next launch of the bucket, after it has waited for
// every owner's gathered weights. Likewise an owner's weight rows are read
// by peers' gather waits, and rewritten only by its next Adam step, which
// needs every peer's next launch.
type rankShard struct {
	// views[bi][o][k] views segment k of owner o in bucket bi.
	views [][][]segView
	// enc[bi][o][k] is the payload of segment k of owner o in bucket bi,
	// encoded into at every launch: its buffers are sized once, exactly, to
	// the segment. parts[bi][o] points at bucket bi's payloads for owner o,
	// the batch the owner receives, and got[bi] is where bucket bi's
	// batches land when this rank owns rows of it.
	enc   [][][]quant.Encoded
	parts [][][]*quant.Encoded
	got   [][][]*quant.Encoded
	// owned is the segments this rank owns, as parameters of weight and
	// gradient views in plan order: the rank's over-arch Adam keeps moments
	// for these rows alone.
	owned []*nn.Param
	// send[grp] is the owned weight rows of readiness group grp that the
	// rank's gather sends; recv[grp][src] is where src's rows land.
	send [2][]*tensor.Tensor
	recv [2][][]*tensor.Tensor
	// gather[grp] is group grp's weight gather in flight, nil when none is.
	gather [2]*comm.Pending[[][]*tensor.Tensor]
}

// newShard builds rank g's shard over its replica and residuals.
func (tr *Trainer) newShard(g int) rankShard {
	params := tr.replicas[g].OverArchParams()
	raw := tr.cfg.Compression.Gradient == quant.None
	sh := rankShard{
		views: make([][][]segView, len(tr.buckets)),
		enc:   make([][][]quant.Encoded, len(tr.buckets)),
		parts: make([][][]*quant.Encoded, len(tr.buckets)),
		got:   make([][][]*quant.Encoded, len(tr.buckets)),
	}
	for grp := range sh.recv {
		sh.recv[grp] = make([][]*tensor.Tensor, tr.cfg.G)
	}
	for bi, b := range tr.buckets {
		grp := b.group()
		sh.views[bi] = make([][]segView, len(b.segs))
		sh.enc[bi] = make([][]quant.Encoded, len(b.segs))
		sh.parts[bi] = make([][]*quant.Encoded, len(b.segs))
		sh.got[bi] = make([][]*quant.Encoded, len(b.segs))
		for o, segs := range b.segs {
			sh.enc[bi][o] = make([]quant.Encoded, len(segs))
			sh.parts[bi][o] = make([]*quant.Encoded, len(segs))
			for k, s := range segs {
				sh.parts[bi][o][k] = &sh.enc[bi][o][k]
				p := params[s.param]
				v := segView{value: s.view(p.Value), grad: s.view(p.Grad)}
				if raw {
					v.snap = tensor.New(v.grad.Shape()...)
				} else {
					v.resid = s.view(tr.residuals[g][s.param])
				}
				sh.views[bi][o] = append(sh.views[bi][o], v)
				if o == g {
					sh.owned = append(sh.owned, &nn.Param{Name: p.Name, Value: v.value, Grad: v.grad})
					sh.send[grp] = append(sh.send[grp], v.value)
				} else {
					sh.recv[grp][o] = append(sh.recv[grp][o], v.value)
				}
			}
		}
	}
	return sh
}

// pendingBucket is one in-flight gradient bucket: the batched all-to-all
// carrying every owner its rows. idx is the bucket's shard key.
type pendingBucket struct {
	idx int
	h   *comm.Pending[[][]*quant.Encoded]
}

// launchBucket posts rank g's share of one bucket's reduction and returns
// without waiting: every owner gets one batch with its rows of every
// parameter of the bucket. On the raw wire the rows are snapshotted first —
// collectives deliver by reference, and p.Grad is overwritten while the
// owner may still be reading. On a compressed wire each segment is encoded
// with quant.EncodeResidualTo, which quantizes g + r straight into the
// segment's own wire buffer and leaves the refreshed error-feedback
// residual r behind in the same pass. Steady-state launches allocate
// nothing but the collective's message and handle.
func (tr *Trainer) launchBucket(g int, b gradBucket) pendingBucket {
	s := tr.cfg.Compression.Gradient
	sh := &tr.shards[g]
	enc := sh.enc[b.idx]
	for o, vs := range sh.views[b.idx] {
		for k, v := range vs {
			if s == quant.None {
				v.snap.CopyFrom(v.grad)
				quant.EncodeTo(&enc[o][k], quant.None, v.snap)
			} else {
				quant.EncodeResidualTo(&enc[o][k], s, v.grad, v.resid)
			}
		}
	}
	return pendingBucket{idx: b.idx, h: tr.world[g].IAlltoAllBatchEnc(sh.parts[b.idx], sh.got[b.idx])}
}

// finishBucket completes rank g's share of a launched bucket: it waits for
// the batch each rank sent it and, per segment it owns, decodes rank 0's
// part into its gradient rows, adds ranks 1…G−1's parts in order and scales
// to the global-batch mean — per element the float32 operations the
// sequential reference runs. Its other gradient rows keep their local
// values, which nothing reads. The payloads are their senders' own
// (rankShard.enc), so there is nothing to release.
func (tr *Trainer) finishBucket(g int, pb pendingBucket, invG float32) {
	got := pb.h.Wait()
	for k, v := range tr.shards[g].views[pb.idx][g] {
		got[0][k].DecodeInto(v.grad)
		for src := 1; src < len(got); src++ {
			got[src][k].AddTo(v.grad)
		}
		tensor.ScaleInPlace(v.grad, invG)
	}
}

// stepOwned is rank g's share of the over-arch update, once every bucket
// has finished: Adam on the rows it owns, then the posts of both weight
// gathers, the bottom MLP's first — the order the forwards wait for them.
func (tr *Trainer) stepOwned(g int) {
	sh := &tr.shards[g]
	tr.overOpts[g].Step(sh.owned)
	for grp := range sh.gather {
		sh.gather[grp] = tr.world[g].IAllGatherBatch(sh.send[grp])
	}
}

// awaitWeights completes rank g's weight gather of readiness group grp,
// copying every other owner's updated rows into its replica. It is a no-op
// when no gather of the group is in flight.
func (tr *Trainer) awaitWeights(g, grp int) {
	sh := &tr.shards[g]
	h := sh.gather[grp]
	if h == nil {
		return
	}
	sh.gather[grp] = nil
	got := h.Wait()
	for src, rows := range sh.recv[grp] {
		for j, v := range rows {
			v.CopyFrom(got[src][j])
		}
	}
}
