package comm

import (
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"dmt/internal/quant"
	"dmt/internal/tensor"
)

// TestAsyncCollectivesMatchBlocking posts several collectives back to back
// before waiting any of them: per-pair mailbox FIFO must keep the epochs
// separate, and each Wait must resolve to exactly what the blocking form
// returns.
func TestAsyncCollectivesMatchBlocking(t *testing.T) {
	const n = 4
	comms := NewGroup(n)
	Run(comms, func(c *Comm) {
		r := float32(c.Rank())
		x1 := tensor.FromSlice([]float32{r + 1, 2 * r}, 2)
		chunks := make([]*tensor.Tensor, n)
		for d := 0; d < n; d++ {
			chunks[d] = tensor.FromSlice([]float32{r*10 + float32(d)}, 1)
		}
		x2 := tensor.FromSlice([]float32{100 + r}, 1)

		// Three collectives in flight at once on one group.
		h1 := c.IAllReduceSum(x1)
		h2 := c.IAlltoAllTensors(chunks)
		h3 := c.IAlltoAllTensors(replicated(c, x2))

		sum := h1.Wait()
		if sum.Data()[0] != 1+2+3+4 || sum.Data()[1] != 2*(0+1+2+3) {
			t.Errorf("rank %d: IAllReduceSum got %v", c.Rank(), sum.Data())
		}
		got := h2.Wait()
		for s := 0; s < n; s++ {
			if want := float32(s*10) + r; got[s].Data()[0] != want {
				t.Errorf("rank %d: IAlltoAll from %d got %v want %v", c.Rank(), s, got[s].Data()[0], want)
			}
		}
		gath := h3.Wait()
		for s := 0; s < n; s++ {
			if want := float32(100 + s); gath[s].Data()[0] != want {
				t.Errorf("rank %d: replicated IAlltoAll from %d got %v want %v", c.Rank(), s, gath[s].Data()[0], want)
			}
		}
		// Wait is idempotent.
		if h1.Wait() != sum {
			t.Errorf("rank %d: second Wait returned a different result", c.Rank())
		}
	})
}

// TestAsyncAlltoAllInt32 covers IAlltoAll on index payloads: every rank's
// slice reaches its destination by reference, charged the caller's size.
func TestAsyncAlltoAllInt32(t *testing.T) {
	const n = 3
	comms := NewGroup(n)
	Run(comms, func(c *Comm) {
		r := c.Rank()
		ichunks := make([][]int32, n)
		for d := 0; d < n; d++ {
			ichunks[d] = make([]int32, d+1)
			ichunks[d][0] = int32(r*100 + d)
		}
		ints := IAlltoAll(c, ichunks, func(ids []int32) int { return 4 * len(ids) }).Wait()
		for s := 0; s < n; s++ {
			if want := int32(s*100 + r); ints[s][0] != want || len(ints[s]) != r+1 {
				t.Errorf("rank %d: IAlltoAll from %d got %v want [%d ...] of %d", r, s, ints[s], want, r+1)
			}
		}
	})
	m := TrafficMatrix(comms)
	for s := range m {
		for d, b := range m[s] {
			if want := int64(4 * (d + 1)); b != want {
				t.Errorf("%d→%d charged %d bytes, want %d", s, d, b, want)
			}
		}
	}
}

// TestWaitOutOfOrderPanics: mailbox FIFO is the wire format, so waiting
// handle #1 while #0 is still pending must panic rather than silently hand
// one collective another's payloads.
func TestWaitOutOfOrderPanics(t *testing.T) {
	comms := NewGroup(2)
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("expected panic")
		}
		if msg, ok := r.(string); !ok || !strings.Contains(msg, "issue order") {
			t.Fatalf("panic should mention issue order: %v", r)
		}
	}()
	Run(comms, func(c *Comm) {
		x := tensor.FromSlice([]float32{1}, 1)
		h1 := c.IAllReduceSum(x)
		h2 := c.IAllReduceSum(x)
		h2.Wait()
		h1.Wait()
	})
}

// recoverRun runs fn and returns the value it panicked with (nil if none).
// A deadlock instead of a panic hangs until the test binary's timeout.
func recoverRun(fn func()) (r any) {
	defer func() { r = recover() }()
	fn()
	return nil
}

// TestRunPanicCancelsGroup is the deadlock regression: one rank panicking
// before it posts its sends must not leave the remaining ranks blocked
// forever on their receives. Run cancels the group, the peers abort, and
// the re-raised panic names the originating rank.
func TestRunPanicCancelsGroup(t *testing.T) {
	const n = 4
	comms := NewGroup(n)
	r := recoverRun(func() {
		Run(comms, func(c *Comm) {
			if c.Rank() == 2 {
				panic("boom before sending")
			}
			// Every other rank enters a collective whose rank-2 payload
			// never arrives; pre-refactor this deadlocked.
			c.AllReduceSum(tensor.FromSlice([]float32{1}, 1))
		})
	})
	if r == nil {
		t.Fatal("Run returned without panicking")
	}
	msg, ok := r.(string)
	if !ok || !strings.Contains(msg, "rank 2") || !strings.Contains(msg, "boom before sending") {
		t.Fatalf("panic should name rank 2 and the original message: %v", r)
	}
}

// TestTrafficCountersConcurrentRead polls the traffic counters while ranks
// are still sending; under -race this verifies the atomic snapshot the
// counters promise.
func TestTrafficCountersConcurrentRead(t *testing.T) {
	const n = 4
	comms := NewGroup(n)
	var running atomic.Bool
	running.Store(true)
	go func() {
		defer running.Store(false)
		Run(comms, func(c *Comm) {
			x := tensor.FromSlice([]float32{float32(c.Rank())}, 1)
			for i := 0; i < 200; i++ {
				c.AllReduceSum(x)
			}
		})
	}()
	var last int64
	for running.Load() {
		m := TrafficMatrix(comms)
		var total int64
		for s := range m {
			for d := range m[s] {
				if s != d {
					total += m[s][d]
				}
			}
		}
		if total < last {
			t.Fatalf("traffic went backwards: %d -> %d", last, total)
		}
		last = total
		_ = bytesSent(comms[0])
		_ = comms[1].BytesSentTo(2)
	}
	// 200 rounds, 4 bytes per payload, n-1 off-diagonal peers per rank.
	if want := int64(200 * 4 * n * (n - 1)); bytesSent(comms[0]) != want/int64(n) {
		t.Fatalf("final bytesSent = %d, want %d", bytesSent(comms[0]), want/int64(n))
	}
}

// TestTimesCounters: a rank that posts and computes before waiting hides
// exactly its compute window, and the rest of its wait for a slow peer is
// exposed — on the virtual clock, so exactly.
func TestTimesCounters(t *testing.T) {
	const n = 2
	net := NewNetwork(fixedDelay{}, n)
	comms := NewGroupNet(n, net, nil)
	Run(comms, func(c *Comm) {
		if c.Rank() == 1 {
			net.Clock(1).Advance(20 * time.Millisecond) // slow rank: posts late
		}
		h := c.IAllReduceSum(tensor.FromSlice([]float32{1}, 1))
		if c.Rank() == 0 {
			net.Clock(0).Advance(5 * time.Millisecond) // overlapped compute
		}
		h.Wait()
	})
	// Rank 1 posted at 20ms and rank 0 hid 5ms of that; the other 15ms is
	// exposed. Rank 1's payload from rank 0 was ready long before it waited.
	want := [n][2]time.Duration{{15 * time.Millisecond, 5 * time.Millisecond}, {0, 0}}
	for r, c := range comms {
		if e, h := c.Times(); e != want[r][0] || h != want[r][1] {
			t.Errorf("rank %d: exposed %v hidden %v, want %v and %v", r, e, h, want[r][0], want[r][1])
		}
	}
	if e, h := GroupTimes(comms); e != 15*time.Millisecond || h != 5*time.Millisecond {
		t.Fatalf("GroupTimes (%v, %v), want (15ms, 5ms)", e, h)
	}
}

// TestAllGatherBatchMatchesPerTensor: the batched gather must deliver, per
// source and per slot, exactly what b separate gathers would — including
// over the quantized wire, where each tensor is encoded on its own and keeps
// its own row structure — and charge the same wire bytes.
func TestAllGatherBatchMatchesPerTensor(t *testing.T) {
	const n, b = 4, 3
	mk := func(rank, i int) *tensor.Tensor {
		return tensor.FromSlice([]float32{float32(rank) + 0.25*float32(i), -float32(i), 1.5}, 3)
	}
	for _, s := range []quant.Scheme{quant.None, quant.FP16, quant.INT8} {
		ref := make([][][]*tensor.Tensor, n) // [rank][i][src]
		got := make([][][]*tensor.Tensor, n) // [rank][src][i]
		comms := NewGroup(n)
		Run(comms, func(c *Comm) {
			r := c.Rank()
			ref[r] = make([][]*tensor.Tensor, b)
			for i := 0; i < b; i++ {
				x := mk(r, i)
				ref[r][i] = alltoAllQ(c, s, x, x, x, x)
			}
		})
		comms2 := NewGroup(n)
		Run(comms2, func(c *Comm) {
			r := c.Rank()
			encs := make([]*quant.Encoded, b)
			for i := range encs {
				encs[i] = quant.Encode(s, mk(r, i))
			}
			parts := c.IAllGatherBatchEnc(encs).Wait()
			got[r] = make([][]*tensor.Tensor, n)
			for src, es := range parts {
				for _, e := range es {
					got[r][src] = append(got[r][src], e.Decode())
				}
			}
		})
		for r := 0; r < n; r++ {
			for src := 0; src < n; src++ {
				for i := 0; i < b; i++ {
					if !got[r][src][i].Equal(ref[r][i][src]) {
						t.Fatalf("%s rank %d: batch slot %d from src %d differs from per-tensor gather", s, r, i, src)
					}
				}
			}
		}
		// One message per (src, dst) pair, charged at the summed wire size.
		m := TrafficMatrix(comms2)
		ref0 := TrafficMatrix(comms)
		for src := 0; src < n; src++ {
			for dst := 0; dst < n; dst++ {
				if m[src][dst] != ref0[src][dst] {
					t.Fatalf("%s: batched traffic [%d][%d]=%d differs from per-tensor %d",
						s, src, dst, m[src][dst], ref0[src][dst])
				}
			}
		}
	}
}

// TestBroadcastWithPendingPanics: a blocking collective must refuse to run
// while a compressed AlltoAll handle is outstanding instead of stealing its
// payloads.
func TestBroadcastWithPendingPanics(t *testing.T) {
	comms := NewGroup(2)
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("expected panic")
		}
		if msg, ok := r.(string); !ok || !strings.Contains(msg, "pending handle") {
			t.Fatalf("panic should mention pending handles: %v", r)
		}
	}()
	Run(comms, func(c *Comm) {
		x := tensor.FromSlice([]float32{1}, 1)
		h := c.IAlltoAllBatchEnc(perPeer(quant.FP16, x, x), nil)
		c.AlltoAllTensors(replicated(c, x))
		h.Wait()
	})
}

// TestRankPanicCancelsItsNetwork: the SPTT-shaped failure — a rank panics
// while its peers are blocked on a DIFFERENT group of the same network. The
// panic cancels the whole network, so those peers wake; a group on another
// network is untouched, a second cancel is a no-op, and every group of the
// canceled network, one built after the cancel included, aborts at once.
func TestRankPanicCancelsItsNetwork(t *testing.T) {
	const n = 2
	one := tensor.FromSlice([]float32{1}, 1)
	net := NewNetwork(nil, n)
	world, sub := NewGroupNet(n, net, nil), NewGroupNet(n, net, nil)
	other := NewGroup(n)
	r := recoverRun(func() {
		Run(world, func(c *Comm) {
			if c.Rank() == 0 {
				panic("boom on the world group")
			}
			// Rank 1 blocks on the sub-group, where rank 0's contribution
			// will never arrive.
			sub[c.Rank()].AllReduceSum(one)
		})
	})
	if msg := fmt.Sprint(r); !strings.Contains(msg, "rank 0 panicked: boom") {
		t.Fatalf("panic should name rank 0 and its message: %v", r)
	}
	select {
	case <-net.Done():
	default:
		t.Fatal("the rank panic left its network's Done open")
	}
	if net.cancel() {
		t.Fatal("a second cancel reported canceling the network")
	}

	Run(other, func(c *Comm) { c.AllReduceSum(one) })

	late := NewGroupNet(n, net, nil)
	for _, grp := range [][]*Comm{world, sub, late} {
		r := recoverRun(func() { Run(grp, func(c *Comm) { c.AllReduceSum(one) }) })
		if msg := fmt.Sprint(r); !strings.Contains(msg, "network canceled") {
			t.Fatalf("a collective on the canceled network should abort: %v", r)
		}
	}
}
