package comm

import (
	"strings"
	"sync"
	"testing"
	"time"

	"dmt/internal/quant"
	"dmt/internal/tensor"
)

// fixedDelay is a toy latency model: every non-self message costs base plus
// perByte per payload byte, with cross-host (different halves of a 2-per-
// host layout when l > 0) messages costing crossMul times more.
type fixedDelay struct {
	base     time.Duration
	perByte  time.Duration
	l        int
	crossMul int
}

func (m fixedDelay) P2PDelay(src, dst, nbytes int) time.Duration {
	if src == dst {
		return 0
	}
	d := m.base + time.Duration(nbytes)*m.perByte
	if m.l > 0 && src/m.l != dst/m.l {
		d *= time.Duration(m.crossMul)
	}
	return d
}

// TestLatencyModeExposedMatchesModel: with no compute charged, a blocking
// collective exposes exactly the modeled transfer time of its slowest
// message (transfers overlap — later ready-times at or before the advanced
// clock cost nothing); with enough compute charged between issue and Wait,
// the same collective exposes nothing and the window is hidden.
func TestLatencyModeExposedMatchesModel(t *testing.T) {
	const n = 4
	model := fixedDelay{base: time.Millisecond}
	{
		net := NewNetwork(model, n)
		comms := NewGroupNet(n, net, nil)
		Run(comms, func(c *Comm) {
			c.AllReduceSum(tensor.FromSlice([]float32{float32(c.Rank())}, 1))
		})
		for r, c := range comms {
			e, h := c.Times()
			if e != time.Millisecond {
				t.Errorf("rank %d: exposed %v, want exactly 1ms (max message delay)", r, e)
			}
			if h != 0 {
				t.Errorf("rank %d: blocking call hid %v, want 0", r, h)
			}
			if got := net.Clock(r).Now(); got != time.Millisecond {
				t.Errorf("rank %d: clock %v, want 1ms", r, got)
			}
		}
	}
	{
		net := NewNetwork(model, n)
		comms := NewGroupNet(n, net, nil)
		Run(comms, func(c *Comm) {
			h := c.IAllReduceSum(tensor.FromSlice([]float32{float32(c.Rank())}, 1))
			net.Clock(c.Rank()).Advance(2 * time.Millisecond) // modeled compute
			h.Wait()
		})
		for r, c := range comms {
			e, h := c.Times()
			if e != 0 {
				t.Errorf("rank %d: exposed %v, want 0 (compute covered the transfer)", r, e)
			}
			if h != 2*time.Millisecond {
				t.Errorf("rank %d: hidden %v, want the 2ms issue→Wait window", r, h)
			}
		}
	}
}

// TestLatencyModeWireBytesDriveDelay: the same logical payload over a
// compressed wire must expose less modeled time than over fp32 — wire
// bytes, not logical bytes, determine the delay.
func TestLatencyModeWireBytesDriveDelay(t *testing.T) {
	const n = 4
	exposedWith := func(s quant.Scheme) time.Duration {
		net := NewNetwork(fixedDelay{perByte: time.Microsecond}, n)
		comms := NewGroupNet(n, net, nil)
		Run(comms, func(c *Comm) {
			x := tensor.New(64)
			for i := range x.Data() {
				x.Data()[i] = float32(i)
			}
			alltoAllQ(c, s, x, x, x, x)
		})
		e, _ := GroupTimes(comms)
		return e
	}
	fp32, fp16 := exposedWith(quant.None), exposedWith(quant.FP16)
	if fp16 >= fp32 {
		t.Fatalf("fp16 wire should expose less modeled time: %v vs fp32 %v", fp16, fp32)
	}
}

// latencyWorkload is a mixed collective sequence with per-rank compute
// charges, used by both the determinism and the race tests. Returns each
// rank's (exposed, hidden, clock) triple.
func latencyWorkload(g, l int) ([]time.Duration, []time.Duration, []time.Duration) {
	net := NewNetwork(fixedDelay{base: 50 * time.Microsecond, perByte: 10 * time.Nanosecond, l: l, crossMul: 4}, g)
	world := NewGroupNet(g, net, nil)
	exposed := make([]time.Duration, g)
	hidden := make([]time.Duration, g)
	clocks := make([]time.Duration, g)
	Run(world, func(c *Comm) {
		r := c.Rank()
		k := net.Clock(r)
		for step := 0; step < 3; step++ {
			x := tensor.FromSlice([]float32{float32(r + step)}, 1)
			big := tensor.New(256)
			for i := range big.Data() {
				big.Data()[i] = float32(r*step + i)
			}
			// Two handles in flight at once, compute between issue and Wait,
			// then a compressed gather and a blocking raw collective.
			h1 := c.IAllReduceSum(big)
			h2 := c.IAlltoAllTensors(replicated(c, x))
			k.Advance(time.Duration(10+step) * time.Microsecond)
			h1.Wait()
			h2.Wait()
			c.IAllGatherBatchEnc([]*quant.Encoded{quant.Encode(quant.FP16, big)}).Wait()
			k.Advance(5 * time.Microsecond)
			c.AlltoAllTensors(replicated(c, x))
		}
		exposed[r], hidden[r] = c.Times()
		clocks[r] = k.Now()
	})
	return exposed, hidden, clocks
}

// TestLatencyDeterminism: the virtual timeline is a pure function of the
// byte stream and charged compute — two identical runs agree bit for bit on
// every rank's exposed, hidden, and clock, however the goroutines were
// scheduled.
func TestLatencyDeterminism(t *testing.T) {
	e1, h1, c1 := latencyWorkload(8, 2)
	e2, h2, c2 := latencyWorkload(8, 2)
	for r := range e1 {
		if e1[r] != e2[r] || h1[r] != h2[r] || c1[r] != c2[r] {
			t.Fatalf("rank %d diverged across identical runs: exposed %v/%v hidden %v/%v clock %v/%v",
				r, e1[r], e2[r], h1[r], h2[r], c1[r], c2[r])
		}
	}
	if e1[0] <= 0 || c1[0] <= 0 {
		t.Fatal("workload should accumulate nonzero modeled time")
	}
}

// TestLatencyModeConcurrentRanks hammers the latency-mode mailboxes from
// many rank goroutines plus a traffic monitor — the -race exercise for the
// virtual-clock send/recv paths (clocks are rank-private; ready-times
// travel with the payload under the mailbox mutex).
func TestLatencyModeConcurrentRanks(t *testing.T) {
	const g = 8
	net := NewNetwork(fixedDelay{base: time.Microsecond, perByte: time.Nanosecond, l: 2, crossMul: 3}, g)
	world := NewGroupNet(g, net, nil)
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { // concurrent monitor: atomic traffic snapshots mid-run
		defer wg.Done()
		for {
			select {
			case <-done:
				return
			default:
				TrafficMatrix(world)
			}
		}
	}()
	Run(world, func(c *Comm) {
		r := c.Rank()
		for i := 0; i < 50; i++ {
			x := tensor.FromSlice([]float32{float32(r*1000 + i)}, 1)
			h := c.IAlltoAllTensors(replicated(c, x))
			net.Clock(r).Advance(time.Duration(i) * time.Nanosecond)
			got := h.Wait()
			for s := 0; s < g; s++ {
				if got[s].Data()[0] != float32(s*1000+i) {
					t.Errorf("rank %d iter %d: bad payload from %d", r, i, s)
				}
			}
		}
	})
	close(done)
	wg.Wait()
}

// TestHiddenWindowsUnion: concurrently in-flight handles must credit the
// UNION of their issue→Wait windows, not the sum — otherwise a rank that
// posts three collectives and computes for d would report 3d hidden time,
// more than its clock covered.
func TestHiddenWindowsUnion(t *testing.T) {
	const n = 2
	net := NewNetwork(fixedDelay{}, n)
	comms := NewGroupNet(n, net, nil)
	Run(comms, func(c *Comm) {
		x := tensor.FromSlice([]float32{float32(c.Rank())}, 1)
		h1 := c.IAlltoAllTensors(replicated(c, x))
		h2 := c.IAlltoAllTensors(replicated(c, x))
		h3 := c.IAlltoAllTensors(replicated(c, x))
		net.Clock(c.Rank()).Advance(20 * time.Millisecond)
		h1.Wait()
		h2.Wait()
		h3.Wait()
	})
	for r, c := range comms {
		if _, hidden := c.Times(); hidden != 20*time.Millisecond {
			t.Errorf("rank %d: hidden %v, want exactly the 20ms compute window", r, hidden)
		}
	}
}

// TestSendAllocatesNothingPerMessage: a message is queued by value beside
// its ready-time, so one warmed IAlltoAllTensors round allocates the same on
// a zero-delay group as on a priced network — per rank the handle, its
// resolver and the result slice, and nothing per message.
func TestSendAllocatesNothingPerMessage(t *testing.T) {
	const g = 4
	round := func(comms []*Comm) float64 {
		chunks := make([][]*tensor.Tensor, g)
		for r := range chunks {
			chunks[r] = make([]*tensor.Tensor, g)
			for d := range chunks[r] {
				chunks[r][d] = tensor.FromSlice([]float32{float32(r*g + d)}, 1)
			}
		}
		hs := make([]*Pending[[]*tensor.Tensor], g)
		// Posts never block (mailboxes are unbounded), so one goroutine can
		// act as every rank in turn: all sends first, then all receives.
		step := func() {
			for r, c := range comms {
				hs[r] = c.IAlltoAllTensors(chunks[r])
			}
			for _, h := range hs {
				h.Wait()
			}
		}
		step() // grow the mailbox queues once
		return testing.AllocsPerRun(20, step)
	}
	zero := round(NewGroup(g))
	priced := round(NewGroupNet(g, NewNetwork(fixedDelay{base: time.Microsecond}, g), nil))
	if zero != priced {
		t.Fatalf("a round allocates %v on a zero-delay group but %v on a priced network", zero, priced)
	}
	if zero > 3*g {
		t.Fatalf("a round of %d messages allocates %v, want at most 3 per rank (%d)", g*g, zero, 3*g)
	}
}

// TestBarrierFailsWithPendingQ: the refuse-to-run-with-handles-pending
// guard covers the compressed gradient gather — a pending
// IAllGatherBatchEnc makes a blocking collective fail loudly instead of
// stealing its mailbox payloads.
func TestBarrierFailsWithPendingQ(t *testing.T) {
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
		x := tensor.FromSlice([]float32{1, 2}, 2)
		h := c.IAllGatherBatchEnc([]*quant.Encoded{quant.Encode(quant.FP16, x)})
		c.AllReduceSum(x)
		h.Wait()
	})
}

// TestBlockingQFailsWithPending: a compressed handle carried across a step
// boundary still blocks the blocking collectives, the guard names it as
// carried, and it fires before the blocking call's sends touch the wire —
// only the compressed payload is on it.
func TestBlockingQFailsWithPending(t *testing.T) {
	comms := NewGroup(1)
	func() {
		defer func() {
			r := recover()
			if r == nil {
				t.Fatal("expected panic")
			}
			if msg, ok := r.(string); !ok || !strings.Contains(msg, "carried across a step boundary") {
				t.Fatalf("panic should report the carried handle: %v", r)
			}
		}()
		Run(comms, func(c *Comm) {
			x := tensor.FromSlice([]float32{1}, 1)
			h := c.IAlltoAllBatchEnc(perPeer(quant.INT8, x), nil)
			h.Carry()
			c.AllReduceSum(x)
			h.Wait()
		})
	}()
	if got, want := TrafficMatrix(comms)[0][0], int64(1+4); got != want {
		t.Fatalf("wire carries %d bytes, want the int8 payload's %d", got, want)
	}
}
