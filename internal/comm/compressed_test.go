package comm

import (
	"fmt"
	"math"
	"testing"

	"dmt/internal/quant"
	"dmt/internal/tensor"
)

// TestCompressedWireAccounting: the traffic counters must charge the wire
// size of the encoded payload, not the raw fp32 bytes — 2 bytes/element for
// fp16; 1 byte/element plus a 4-byte per-row scale for int8.
func TestCompressedWireAccounting(t *testing.T) {
	const n, elems = 3, 10 // 1-D tensors: one scale per payload
	cases := []struct {
		scheme    quant.Scheme
		wantBytes int64
	}{
		{quant.None, 4 * elems},
		{quant.FP16, 2 * elems},
		{quant.INT8, 1*elems + 4},
		{quant.INT4, (elems+1)/2 + 4},
	}
	for _, tc := range cases {
		comms := NewGroup(n)
		Run(comms, func(c *Comm) {
			chunks := make([]*tensor.Tensor, n)
			for d := 0; d < n; d++ {
				chunks[d] = tensor.Full(float32(c.Rank()+1), elems)
			}
			c.IAlltoAllTensorsQ(tc.scheme, chunks).Wait()
		})
		m := TrafficMatrix(comms)
		for s := 0; s < n; s++ {
			for d := 0; d < n; d++ {
				if m[s][d] != tc.wantBytes {
					t.Fatalf("%s: traffic[%d][%d] = %d, want %d", tc.scheme, s, d, m[s][d], tc.wantBytes)
				}
			}
		}
	}
}

// TestCompressedAlltoAllDeliversQuantized: each received chunk must equal
// the sender's payload passed through the scheme's round trip (quant.Apply
// is exactly Encode∘Decode), and nil chunks stay nil.
func TestCompressedAlltoAllDeliversQuantized(t *testing.T) {
	const n = 4
	r := tensor.NewRNG(11)
	orig := make([][]*tensor.Tensor, n)
	for src := 0; src < n; src++ {
		orig[src] = make([]*tensor.Tensor, n)
		for d := 0; d < n; d++ {
			if src == 1 && d == 2 {
				continue // exercise the nil-chunk path
			}
			orig[src][d] = tensor.RandN(r, 1, 3, 5)
		}
	}
	for _, s := range []quant.Scheme{quant.FP16, quant.INT8, quant.INT4} {
		got := make([][]*tensor.Tensor, n)
		comms := NewGroup(n)
		Run(comms, func(c *Comm) {
			got[c.Rank()] = c.IAlltoAllTensorsQ(s, orig[c.Rank()]).Wait()
		})
		for dst := 0; dst < n; dst++ {
			for src := 0; src < n; src++ {
				if orig[src][dst] == nil {
					if got[dst][src] != nil {
						t.Fatalf("%s: nil chunk arrived non-nil", s)
					}
					continue
				}
				want := quant.Apply(s, orig[src][dst])
				if !got[dst][src].Equal(want) {
					t.Fatalf("%s: dst %d src %d decoded payload differs from Apply", s, dst, src)
				}
			}
		}
	}
}

// TestCompressedCollectivesConcurrencyAgree drives both compressed
// collectives at G=8 under comm.Run — the `-race` workout for the
// compressed wire path. Each rank reduces the gathered payloads the way the
// gradient buckets do (DecodeInto source 0, AddTo the rest, in rank order),
// and every rank's sum must be bit-identical across ranks and equal to the
// sequential reference (the rank-ordered sum of each rank's quantized
// contribution); every AlltoAll chunk must arrive as quant.Apply predicts.
func TestCompressedCollectivesConcurrencyAgree(t *testing.T) {
	const g, rounds = 8, 5
	r := tensor.NewRNG(23)
	for _, s := range []quant.Scheme{quant.None, quant.FP16, quant.INT8} {
		xs := make([][]*tensor.Tensor, rounds)
		chunks := make([][][]*tensor.Tensor, rounds)
		for round := 0; round < rounds; round++ {
			xs[round] = make([]*tensor.Tensor, g)
			chunks[round] = make([][]*tensor.Tensor, g)
			for rk := 0; rk < g; rk++ {
				xs[round][rk] = tensor.RandN(r, 1, 4, 8)
				chunks[round][rk] = make([]*tensor.Tensor, g)
				for d := 0; d < g; d++ {
					chunks[round][rk][d] = tensor.RandN(r, 1, 2, 8)
				}
			}
		}
		sums := make([][]*tensor.Tensor, g)
		a2a := make([][][]*tensor.Tensor, g)
		for rk := 0; rk < g; rk++ {
			sums[rk] = make([]*tensor.Tensor, rounds)
			a2a[rk] = make([][]*tensor.Tensor, rounds)
		}
		comms := NewGroup(g)
		Run(comms, func(c *Comm) {
			for round := 0; round < rounds; round++ {
				x := xs[round][c.Rank()]
				parts := c.IAllGatherBatchEnc([]*quant.Encoded{quant.Encode(s, x)}).Wait()
				sum := tensor.New(x.Shape()...)
				for src, p := range parts {
					if src == 0 {
						p[0].DecodeInto(sum)
					} else {
						p[0].AddTo(sum)
					}
					p[0].Release()
				}
				sums[c.Rank()][round] = sum
				a2a[c.Rank()][round] = c.IAlltoAllTensorsQ(s, chunks[round][c.Rank()]).Wait()
			}
		})
		for round := 0; round < rounds; round++ {
			ref := quant.Apply(s, xs[round][0]).Clone()
			for rk := 1; rk < g; rk++ {
				tensor.AddInPlace(ref, quant.Apply(s, xs[round][rk]))
			}
			for rk := 0; rk < g; rk++ {
				if !sums[rk][round].Equal(ref) {
					t.Fatalf("%s round %d: rank %d AllReduce differs from sequential reference", s, round, rk)
				}
				for src := 0; src < g; src++ {
					if !a2a[rk][round][src].Equal(quant.Apply(s, chunks[round][src][rk])) {
						t.Fatalf("%s round %d: AlltoAll dst %d src %d payload wrong", s, round, rk, src)
					}
				}
			}
		}
	}
}

// TestSplitByHostTable covers the satellite edge cases: one rank per host,
// all ranks on one host, a rank count not divisible by the host width, and
// the empty matrix.
func TestSplitByHostTable(t *testing.T) {
	full3 := [][]int64{ // 3 ranks, diagonal must always be ignored
		{9, 1, 2},
		{3, 9, 4},
		{5, 6, 9},
	}
	cases := []struct {
		name                 string
		m                    [][]int64
		l                    int
		wantIntra, wantCross int64
	}{
		{"l=1 every hop is cross-host", full3, 1, 0, 1 + 2 + 3 + 4 + 5 + 6},
		{"l=G one host, all intra", full3, 3, 1 + 2 + 3 + 4 + 5 + 6, 0},
		{"G=3 l=2 ragged tail host", full3, 2, 1 + 3, 2 + 4 + 5 + 6},
		{"empty matrix", [][]int64{}, 2, 0, 0},
		{"l exceeds G", full3, 8, 1 + 2 + 3 + 4 + 5 + 6, 0},
	}
	for _, tc := range cases {
		intra, cross := SplitByHost(tc.m, tc.l)
		if intra != tc.wantIntra || cross != tc.wantCross {
			t.Fatalf("%s: got intra %d cross %d, want %d and %d",
				tc.name, intra, cross, tc.wantIntra, tc.wantCross)
		}
	}
}

func TestSplitByHostRejectsBadWidth(t *testing.T) {
	for _, l := range []int{0, -2} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("l=%d must panic", l)
				}
			}()
			SplitByHost([][]int64{{0}}, l)
		}()
	}
}

// TestCompressedNoneIsRawPath: IAlltoAllTensorsQ with quant.None must
// deliver the sender's tensor by reference, exactly like the raw collective.
func TestCompressedNoneIsRawPath(t *testing.T) {
	const n = 2
	x := tensor.FromSlice([]float32{1, 2, 3}, 3)
	got := make([][]*tensor.Tensor, n)
	comms := NewGroup(n)
	Run(comms, func(c *Comm) {
		chunks := []*tensor.Tensor{nil, nil}
		if c.Rank() == 0 {
			chunks = []*tensor.Tensor{x, x}
		}
		got[c.Rank()] = c.IAlltoAllTensorsQ(quant.None, chunks).Wait()
	})
	for rk := 0; rk < n; rk++ {
		if got[rk][0] != x {
			t.Fatalf("rank %d: None AlltoAll must deliver by reference", rk)
		}
	}
	if fmt.Sprintf("%p", got[1][0]) != fmt.Sprintf("%p", x) {
		t.Fatal("pointer identity lost")
	}
}

// TestAlltoAllBatchEncDeliversEachOwnerItsBatch: every rank receives, from
// each source, exactly the batch that source addressed to it, in order; the
// traffic counters charge each batch's wire bytes to its one (src, dst)
// pair; and a destination every rank leaves empty gets no message at all,
// so it receives nothing and nothing stays queued for the next collective.
func TestAlltoAllBatchEncDeliversEachOwnerItsBatch(t *testing.T) {
	const g = 4
	// Rank d gets d batches' worth of payloads from everyone: rank 0 none.
	x := func(src, dst, k int) *tensor.Tensor {
		return tensor.Full(float32(100*src+10*dst+k), 2, 3)
	}
	comms := NewGroup(g)
	got := make([][][]float32, g) // [dst][src] first element of each payload
	Run(comms, func(c *Comm) {
		parts := make([][]*quant.Encoded, g)
		for d := range parts {
			for k := 0; k < d; k++ {
				parts[d] = append(parts[d], quant.Encode(quant.INT8, x(c.Rank(), d, k)))
			}
		}
		in := c.IAlltoAllBatchEnc(parts, nil).Wait()
		got[c.Rank()] = make([][]float32, g)
		for src, es := range in {
			for _, e := range es {
				got[c.Rank()][src] = append(got[c.Rank()][src], e.Decode().Data()[0])
				e.Release()
			}
		}
		// The next collective on the group must see only its own messages.
		if sum := c.AllReduceSum(tensor.Full(1, 1)); sum.Data()[0] != g {
			t.Errorf("rank %d: follow-up AllReduce read %v", c.Rank(), sum.Data()[0])
		}
	})
	traffic := TrafficMatrix(comms)
	for d := 0; d < g; d++ {
		for src := 0; src < g; src++ {
			if len(got[d][src]) != d {
				t.Fatalf("rank %d got %d payloads from rank %d, want %d", d, len(got[d][src]), src, d)
			}
			for k, v := range got[d][src] {
				if want := x(src, d, k).Data()[0]; math.Abs(float64(v-want)) > 1e-6*math.Abs(float64(want)) {
					t.Fatalf("rank %d payload %d from rank %d decodes to %v, want %v", d, k, src, v, want)
				}
			}
			// Each int8 payload of 2 rows × 3 is 6 bytes plus two 4-byte
			// scales; the follow-up AllReduce adds one fp32 element.
			if want := int64(d*(6+8) + 4); traffic[src][d] != want {
				t.Fatalf("%d→%d carried %d bytes, want %d", src, d, traffic[src][d], want)
			}
		}
	}
}
