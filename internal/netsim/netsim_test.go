package netsim

import (
	"math"
	"testing"

	"dmt/internal/topology"
)

// TestCalibrationMatchesFigure5 asserts the model reproduces the paper's
// measured A100 curves within 10% at every calibration point — the
// foundation for every throughput experiment downstream.
func TestCalibrationMatchesFigure5(t *testing.T) {
	f := New(topology.A100)
	for _, coll := range []Collective{AllReduce, AlltoAll} {
		model := f.Figure5Curve(coll)
		paper := PaperFigure5(coll)
		for i, p := range paper {
			rel := math.Abs(model[i].BusBW-p.BusBW) / p.BusBW
			if rel > 0.10 {
				t.Errorf("%s @%d GPUs: model %.1f vs paper %.1f (%.0f%% off)",
					coll, p.GPUs, model[i].BusBW, p.BusBW, rel*100)
			}
		}
	}
}

func TestAlltoAllDropsSharplyLeavingHost(t *testing.T) {
	f := New(topology.A100)
	intra := f.BusBW(AlltoAll, 8, 8)
	cross := f.BusBW(AlltoAll, 16, 8)
	if intra < 3*cross {
		t.Fatalf("NVLink->RDMA cliff missing: %v vs %v", intra, cross)
	}
}

func TestSmallerWorldHigherBusBW(t *testing.T) {
	// §3.1.2 property (1): same volume, smaller world, higher throughput.
	f := New(topology.A100)
	prev := math.Inf(1)
	for _, n := range []int{16, 32, 64, 512} {
		bw := f.BusBW(AlltoAll, n, 8)
		if bw > prev {
			t.Fatalf("busbw must not increase with scale: %v at %d after %v", bw, n, prev)
		}
		prev = bw
	}
}

func TestPeerWorldBeatsGlobalWorld(t *testing.T) {
	// The SPTT peer AlltoAll (world T = G/8, one rank per host) must beat
	// the global AlltoAll (world G, 8 ranks per host) on per-byte time.
	f := New(topology.A100)
	const g = 512
	global := f.Time(AlltoAll, g, 8, 256<<20)
	peer := f.Time(AlltoAll, g/8, 1, 256<<20)
	if peer >= global {
		t.Fatalf("peer AlltoAll (%.3fms) should beat global (%.3fms)", peer*1e3, global*1e3)
	}
}

func TestGenerationScaling(t *testing.T) {
	// H100's NIC is 2x A100's: cross-host busbw should scale accordingly.
	a := New(topology.A100).BusBW(AllReduce, 64, 8)
	h := New(topology.H100).BusBW(AllReduce, 64, 8)
	if math.Abs(h/a-2) > 0.01 {
		t.Fatalf("H100/A100 AllReduce ratio %v, want 2", h/a)
	}
	v := New(topology.V100).BusBW(AllReduce, 64, 8)
	if math.Abs(v/a-0.5) > 0.01 {
		t.Fatalf("V100/A100 ratio %v, want 0.5", v/a)
	}
	// Intra-host scales with NVLink.
	ai := New(topology.A100).BusBW(AlltoAll, 8, 8)
	hi := New(topology.H100).BusBW(AlltoAll, 8, 8)
	if math.Abs(hi/ai-1.5) > 0.01 {
		t.Fatalf("intra-host NVLink ratio %v, want 1.5", hi/ai)
	}
}

func TestTimeConventions(t *testing.T) {
	f := New(topology.A100)
	const bytes = 1 << 30
	n := 64
	latency := alphaLatency * math.Ceil(math.Log2(float64(n)))
	bw := f.BusBW(AlltoAll, n, 8) * 1e9
	want := latency + float64(bytes)*float64(n-1)/float64(n)/bw
	if got := f.Time(AlltoAll, n, 8, bytes); math.Abs(got-want)/want > 1e-12 {
		t.Fatalf("AlltoAll time convention wrong: %v vs %v", got, want)
	}
	// AllReduce moves 2(n-1)/n.
	bwAR := f.BusBW(AllReduce, n, 8) * 1e9
	wantAR := latency + float64(bytes)*2*float64(n-1)/float64(n)/bwAR
	if got := f.Time(AllReduce, n, 8, bytes); math.Abs(got-wantAR)/wantAR > 1e-12 {
		t.Fatalf("AllReduce time convention wrong: %v vs %v", got, wantAR)
	}
}

func TestLatencyDominatesSmallMessages(t *testing.T) {
	f := New(topology.A100)
	tiny := f.Time(AlltoAll, 64, 8, 1024)
	if tiny < alphaLatency {
		t.Fatalf("latency term missing: %v", tiny)
	}
	// Doubling a tiny message should barely change the time.
	tiny2 := f.Time(AlltoAll, 64, 8, 2048)
	if (tiny2-tiny)/tiny > 0.01 {
		t.Fatalf("small messages should be latency-bound: %v vs %v", tiny, tiny2)
	}
}

func TestWorldOfOneIsFree(t *testing.T) {
	f := New(topology.A100)
	if f.Time(AllReduce, 1, 1, 1<<20) != 0 {
		t.Fatal("single-rank collective should cost nothing")
	}
}

func TestExtrapolationBeyondCalibration(t *testing.T) {
	// 1024 GPUs (the §6 quantization experiment) must extrapolate smoothly:
	// positive, and no higher than the 512-GPU value.
	f := New(topology.H100)
	b512 := f.BusBW(AlltoAll, 512, 8)
	b1024 := f.BusBW(AlltoAll, 1024, 8)
	if b1024 <= 0 || b1024 > b512 {
		t.Fatalf("extrapolation broken: %v then %v", b512, b1024)
	}
}

func TestBadArgsPanic(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New(topology.A100).BusBW(AlltoAll, 0, 1) // world < 1 is garbage, not an edge
}

// TestEdgeCases pins the degenerate-layout contract for all four
// collectives: a 1-rank world and a 0-byte payload cost nothing, a
// ranksPerHost exceeding the world clamps to the single-host (intra) path,
// and no edge ever yields NaN/Inf out of Time or a non-positive bandwidth.
func TestEdgeCases(t *testing.T) {
	f := New(topology.A100)
	colls := []Collective{AllReduce, AlltoAll, ReduceScatter, AllGather}
	for _, coll := range colls {
		t.Run(coll.String(), func(t *testing.T) {
			// world == 1: free in time, finite in bandwidth.
			if got := f.Time(coll, 1, 1, 64<<20); got != 0 {
				t.Errorf("Time(world=1) = %v, want 0", got)
			}
			bw := f.BusBW(coll, 1, 1)
			if math.IsNaN(bw) || math.IsInf(bw, 0) || bw <= 0 {
				t.Errorf("BusBW(world=1) = %v, want finite positive", bw)
			}
			// bytes == 0: the collective is elided.
			if got := f.Time(coll, 64, 8, 0); got != 0 {
				t.Errorf("Time(bytes=0) = %v, want 0", got)
			}
			// ranksPerHost > world: behaves as the single-host layout.
			if got, want := f.BusBW(coll, 4, 8), f.BusBW(coll, 4, 4); got != want {
				t.Errorf("BusBW(rph>world) = %v, want intra value %v", got, want)
			}
			if got := f.Time(coll, 4, 8, 64<<20); math.IsNaN(got) || math.IsInf(got, 0) || got <= 0 {
				t.Errorf("Time(rph>world) = %v, want finite positive", got)
			}
			// world == 1 AND ranksPerHost > world compose.
			if got := f.Time(coll, 1, 8, 64<<20); got != 0 {
				t.Errorf("Time(world=1, rph=8) = %v, want 0", got)
			}
		})
	}
}

func TestP2PTime(t *testing.T) {
	f := New(topology.A100)
	// Empty messages still pay the per-message latency constant (barrier
	// tokens are not free), and intra-host beats cross-host at every size.
	if f.P2PTime(0, true) <= 0 || f.P2PTime(0, false) <= 0 {
		t.Fatal("0-byte message should cost the latency constant")
	}
	for _, nbytes := range []int{0, 1 << 10, 1 << 20, 64 << 20} {
		intra, cross := f.P2PTime(nbytes, true), f.P2PTime(nbytes, false)
		if intra >= cross {
			t.Fatalf("%dB: intra %v should beat cross %v", nbytes, intra, cross)
		}
	}
	// Large messages are bandwidth-bound at the link rates.
	const nbytes = 1 << 30
	wantCross := float64(nbytes) / (topology.A100.ScaleOutGBps() * 1e9)
	if got := f.P2PTime(nbytes, false); math.Abs(got-wantCross)/wantCross > 0.01 {
		t.Fatalf("cross 1GiB: %v, want ~%v", got, wantCross)
	}
	// Monotone in bytes.
	if f.P2PTime(2<<20, false) <= f.P2PTime(1<<20, false) {
		t.Fatal("p2p time must grow with bytes")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("negative bytes should panic")
		}
	}()
	f.P2PTime(-1, true)
}

func TestCollectiveString(t *testing.T) {
	if AllReduce.String() != "AllReduce" || AlltoAll.String() != "AlltoAll" {
		t.Fatal("collective names wrong")
	}
	if ReduceScatter.String() != "ReduceScatter" || AllGather.String() != "AllGather" {
		t.Fatal("collective names wrong")
	}
	if Collective(99).String() == "" {
		t.Fatal("unknown collective should still render")
	}
}
