package comm

import (
	"strings"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"dmt/internal/tensor"
)

func TestAlltoAllTensors(t *testing.T) {
	const n = 4
	comms := NewGroup(n)
	results := make([][]*tensor.Tensor, n)
	Run(comms, func(c *Comm) {
		chunks := make([]*tensor.Tensor, n)
		for d := 0; d < n; d++ {
			// Payload encodes (src, dst) so routing errors are visible.
			chunks[d] = tensor.FromSlice([]float32{float32(10*c.Rank() + d)}, 1)
		}
		results[c.Rank()] = c.AlltoAllTensors(chunks)
	})
	for dst := 0; dst < n; dst++ {
		for src := 0; src < n; src++ {
			want := float32(10*src + dst)
			if got := results[dst][src].Data()[0]; got != want {
				t.Fatalf("dst %d src %d got %v want %v", dst, src, got, want)
			}
		}
	}
}

func TestAlltoAllVariableShapes(t *testing.T) {
	const n = 3
	comms := NewGroup(n)
	results := make([][]*tensor.Tensor, n)
	Run(comms, func(c *Comm) {
		chunks := make([]*tensor.Tensor, n)
		for d := 0; d < n; d++ {
			chunks[d] = tensor.Full(float32(c.Rank()), d+1) // length depends on dst
		}
		results[c.Rank()] = c.AlltoAllTensors(chunks)
	})
	for dst := 0; dst < n; dst++ {
		for src := 0; src < n; src++ {
			got := results[dst][src]
			if got.Len() != dst+1 || got.Data()[0] != float32(src) {
				t.Fatalf("variable chunk dst=%d src=%d wrong: %v", dst, src, got)
			}
		}
	}
}

func TestAlltoAllInt32(t *testing.T) {
	const n = 3
	comms := NewGroup(n)
	results := make([][][]int32, n)
	Run(comms, func(c *Comm) {
		chunks := make([][]int32, n)
		for d := 0; d < n; d++ {
			chunks[d] = []int32{int32(c.Rank()), int32(d)}
		}
		results[c.Rank()] = AlltoAll(c, chunks, func(ids []int32) int { return 4 * len(ids) })
	})
	for dst := 0; dst < n; dst++ {
		for src := 0; src < n; src++ {
			got := results[dst][src]
			if got[0] != int32(src) || got[1] != int32(dst) {
				t.Fatalf("int32 routing wrong: dst=%d src=%d got=%v", dst, src, got)
			}
		}
	}
}

func TestAllReduceSum(t *testing.T) {
	const n = 5
	comms := NewGroup(n)
	sums := make([]*tensor.Tensor, n)
	Run(comms, func(c *Comm) {
		x := tensor.FromSlice([]float32{float32(c.Rank()), 1}, 2)
		sums[c.Rank()] = c.AllReduceSum(x)
	})
	for r := 0; r < n; r++ {
		if sums[r].Data()[0] != 10 || sums[r].Data()[1] != 5 {
			t.Fatalf("allreduce rank %d got %v", r, sums[r].Data())
		}
	}
	// Determinism: all ranks bit-identical.
	for r := 1; r < n; r++ {
		if !sums[r].Equal(sums[0]) {
			t.Fatal("allreduce results differ across ranks")
		}
	}
}

func TestBarrierAndSequencedCollectives(t *testing.T) {
	// Multiple collectives back to back must not interleave payloads: per-
	// pair mailbox FIFO separates the rounds, with no barrier between them.
	const n = 4
	comms := NewGroup(n)
	var mu sync.Mutex
	bad := false
	Run(comms, func(c *Comm) {
		for round := 0; round < 10; round++ {
			chunks := make([]*tensor.Tensor, n)
			for d := 0; d < n; d++ {
				chunks[d] = tensor.FromSlice([]float32{float32(round)}, 1)
			}
			got := c.AlltoAllTensors(chunks)
			for _, g := range got {
				if g.Data()[0] != float32(round) {
					mu.Lock()
					bad = true
					mu.Unlock()
				}
			}
		}
	})
	if bad {
		t.Fatal("payloads from different collective rounds interleaved")
	}
}

func TestTrafficCounters(t *testing.T) {
	const n = 3
	comms := NewGroup(n)
	Run(comms, func(c *Comm) {
		chunks := make([]*tensor.Tensor, n)
		for d := 0; d < n; d++ {
			chunks[d] = tensor.New(5) // 20 bytes each
		}
		c.AlltoAllTensors(chunks)
	})
	m := TrafficMatrix(comms)
	for s := 0; s < n; s++ {
		for d := 0; d < n; d++ {
			if m[s][d] != 20 {
				t.Fatalf("traffic[%d][%d] = %d, want 20", s, d, m[s][d])
			}
		}
	}
	// bytesSent excludes self-delivery: 2 peers * 20 bytes.
	if bytesSent(comms[0]) != 40 {
		t.Fatalf("bytesSent = %d", bytesSent(comms[0]))
	}
	if comms[1].BytesSentTo(2) != 20 {
		t.Fatalf("BytesSentTo = %d", comms[1].BytesSentTo(2))
	}
}

func TestRunPropagatesPanicsWithRank(t *testing.T) {
	comms := NewGroup(2)
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("expected panic")
		}
		if msg, ok := r.(string); !ok || !strings.Contains(msg, "rank 1") {
			t.Fatalf("panic should identify rank 1: %v", r)
		}
	}()
	Run(comms, func(c *Comm) {
		if c.Rank() == 1 {
			panic("boom")
		}
		// Rank 0 must not deadlock waiting for rank 1.
	})
}

func TestNewGroupRejectsBadSize(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewGroup(0)
}

// Property: AlltoAll twice returns data to its origin (transpose is an
// involution on the (src, dst) chunk matrix).
func TestQuickAlltoAllInvolution(t *testing.T) {
	f := func(seed uint64, n8 uint8) bool {
		n := int(n8%6) + 1
		comms := NewGroup(n)
		orig := make([][]*tensor.Tensor, n)
		final := make([][]*tensor.Tensor, n)
		r := tensor.NewRNG(seed)
		for i := 0; i < n; i++ {
			orig[i] = make([]*tensor.Tensor, n)
			for d := 0; d < n; d++ {
				orig[i][d] = tensor.RandN(r, 1, 3)
			}
		}
		Run(comms, func(c *Comm) {
			once := c.AlltoAllTensors(orig[c.Rank()])
			final[c.Rank()] = c.AlltoAllTensors(once)
		})
		for i := 0; i < n; i++ {
			for d := 0; d < n; d++ {
				if !final[i][d].Equal(orig[i][d]) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestSplitByHost(t *testing.T) {
	// 4 ranks, 2 per host: hosts {0,1} and {2,3}.
	m := [][]int64{
		{9, 1, 2, 3}, // diagonal 9 must be ignored
		{4, 0, 5, 6},
		{7, 8, 0, 10},
		{11, 12, 13, 0},
	}
	intra, cross := SplitByHost(m, 2)
	if want := int64(1 + 4 + 10 + 13); intra != want {
		t.Fatalf("intra = %d, want %d", intra, want)
	}
	if want := int64(2 + 3 + 5 + 6 + 7 + 8 + 11 + 12); cross != want {
		t.Fatalf("cross = %d, want %d", cross, want)
	}
	// With every rank on one host, all off-diagonal traffic is intra-host.
	intra, cross = SplitByHost(m, 4)
	if cross != 0 || intra != 82 {
		t.Fatalf("single host: intra %d cross %d, want 82 and 0", intra, cross)
	}
}

func TestSplitByHostMatchesMeasuredAllReduce(t *testing.T) {
	comms := NewGroup(4)
	r := tensor.NewRNG(3)
	xs := make([]*tensor.Tensor, 4)
	for i := range xs {
		xs[i] = tensor.RandN(r, 1, 8)
	}
	Run(comms, func(c *Comm) {
		c.AllReduceSum(xs[c.Rank()])
	})
	intra, cross := SplitByHost(TrafficMatrix(comms), 2)
	// Each rank sends its 32-byte tensor to 1 intra-host and 2 cross-host
	// peers (self-delivery excluded).
	if intra != 4*32 || cross != 4*2*32 {
		t.Fatalf("intra %d cross %d, want 128 and 256", intra, cross)
	}
}

// replicated returns x once per rank of c's group: the chunks of an
// AlltoAll that delivers x to every rank, as an AllGather of x would.
func replicated(c *Comm, x *tensor.Tensor) []*tensor.Tensor {
	chunks := make([]*tensor.Tensor, c.Size())
	for d := range chunks {
		chunks[d] = x
	}
	return chunks
}

// bytesSent returns the bytes c's rank sent to the other ranks of its
// group, self-delivery excluded.
func bytesSent(c *Comm) int64 {
	var t int64
	for d := 0; d < c.Size(); d++ {
		if d != c.Rank() {
			t += c.BytesSentTo(d)
		}
	}
	return t
}

// Now returns the rank's current virtual time.
func (k *Clock) Now() time.Duration { return time.Duration(k.ns.Load()) }

// Size returns the group size.
func (c *Comm) Size() int { return c.g.size }
