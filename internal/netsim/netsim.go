// Package netsim is the collective-performance model of the reproduction:
// given a hardware generation, a collective type, a world size, and how the
// world's ranks are spread over hosts, it predicts achieved bus bandwidth
// and wall-clock time.
//
// The model is calibrated against the paper's own NCCL measurements
// (Figure 5: AllReduce@64MB and AlltoAll@256MB on 8–512 A100 GPUs, 8 GPUs
// per host) and scaled to other generations by the Table 1 bandwidth ratios:
//
//   - Intra-host collectives achieve a fixed fraction of scale-up (NVLink)
//     bandwidth (155/300 for AlltoAll, 163/300 for AllReduce on A100).
//   - Cross-host AlltoAll time is the max of the overlapped NVLink and RDMA
//     transfer times, degraded by a congestion efficiency η(hosts) fitted to
//     Figure 5. η is what makes "same volume, smaller world" faster — the
//     property SPTT's peer AlltoAlls exploit (§3.1.2).
//   - Cross-host AllReduce bus bandwidth follows the measured Figure 5 curve
//     directly, scaled by the generation's NIC ratio.
//
// All bandwidths are in GB/s (1e9 bytes/s); times are in seconds.
package netsim

import (
	"fmt"
	"math"

	"dmt/internal/topology"
)

// Collective enumerates the modeled collective types.
type Collective int

// Modeled collectives.
const (
	AllReduce Collective = iota
	AlltoAll
	ReduceScatter
	AllGather
)

// String names the collective.
func (c Collective) String() string {
	switch c {
	case AllReduce:
		return "AllReduce"
	case AlltoAll:
		return "AlltoAll"
	case ReduceScatter:
		return "ReduceScatter"
	case AllGather:
		return "AllGather"
	default:
		return fmt.Sprintf("Collective(%d)", int(c))
	}
}

// Calibration constants (A100 reference, from Figure 5).
const (
	// intraEffAlltoAll is achieved intra-host AlltoAll busbw / scale-up BW:
	// 155 GB/s over 300 GB/s NVLink on A100.
	intraEffAlltoAll = 155.0 / 300.0
	// intraEffAllReduce: 163 GB/s over 300 GB/s.
	intraEffAllReduce = 163.0 / 300.0
	// alphaLatency is the per-hop latency of a collective step (seconds).
	alphaLatency = 18e-6
	// p2pLatencyIntra/Cross are the fitted per-message point-to-point
	// latency constants (seconds) behind P2PTime: the fixed cost of landing
	// one message on a peer, NVLink copy launch vs RDMA verb round trip.
	// They are deliberately smaller than alphaLatency, which amortizes a
	// whole log2(n)-step collective schedule into one per-hop figure.
	p2pLatencyIntra = 2e-6
	p2pLatencyCross = 5e-6
)

// etaPoint is one calibrated congestion-efficiency sample.
type etaPoint struct {
	hosts int
	eta   float64
}

// a2aEta is the cross-host AlltoAll congestion efficiency, indexed by the
// collective's WORLD SIZE (rank count), fitted so the model reproduces
// Figure 5's AlltoAll curve on A100 at its calibration points (world =
// 8 × hosts there). Indexing by world size rather than hosts reflects that
// the degradation is a per-rank protocol effect — n−1 destinations, chunk
// fragmentation, straggler tails — which is exactly the §3.1.2 property
// SPTT exploits by shrinking the peer AlltoAll world by L×. Points below
// world 16 are unmeasured small-world extrapolations.
var a2aEta = []etaPoint{
	{2, 0.96}, {4, 0.90}, {8, 0.86}, {16, 0.81}, {32, 0.74}, {64, 0.57},
	{128, 0.60}, {256, 0.58}, {512, 0.51},
}

// arBusBWA100 is the measured Figure 5 AllReduce bus bandwidth (GB/s) on
// A100 versus world size at 8 GPUs per host.
var arBusBWA100 = []etaPoint{
	{8, 163}, {16, 134}, {32, 111}, {64, 91}, {128, 81}, {256, 74}, {512, 65},
}

// interpLog2 interpolates a monotone-sampled curve in log2(x) space, with
// flat extension below the first point and geometric decay (last ratio per
// doubling) above the last point.
func interpLog2(points []etaPoint, x float64) float64 {
	if x <= float64(points[0].hosts) {
		return points[0].eta
	}
	last := points[len(points)-1]
	if x >= float64(last.hosts) {
		prev := points[len(points)-2]
		ratio := last.eta / prev.eta
		doublings := math.Log2(x / float64(last.hosts))
		decay := math.Pow(ratio, doublings)
		return last.eta * decay
	}
	lx := math.Log2(x)
	for i := 1; i < len(points); i++ {
		lo, hi := points[i-1], points[i]
		if x <= float64(hi.hosts) {
			l0, l1 := math.Log2(float64(lo.hosts)), math.Log2(float64(hi.hosts))
			t := (lx - l0) / (l1 - l0)
			return lo.eta + t*(hi.eta-lo.eta)
		}
	}
	return last.eta
}

// Fabric predicts collective performance for one hardware generation.
type Fabric struct {
	Gen         topology.Generation
	GPUsPerHost int
	// Alpha is the per-hop latency (seconds); zero disables latency.
	Alpha float64
}

// New returns a fabric for the generation with 8 GPUs per host and the
// default latency constant.
func New(gen topology.Generation) *Fabric {
	return &Fabric{Gen: gen, GPUsPerHost: 8, Alpha: alphaLatency}
}

// nicScale is this generation's scale-out bandwidth relative to the A100
// reference the curves were calibrated on.
func (f *Fabric) nicScale() float64 { return f.Gen.ScaleOutGBps() / topology.A100.ScaleOutGBps() }

// BusBW returns the achieved bus bandwidth (GB/s) of a collective over
// world ranks spread ranksPerHost per host. Bus bandwidth follows NCCL's
// convention: it is the size-independent figure of merit; latency is added
// separately by Time.
//
// Degenerate layouts resolve to the nearest meaningful configuration
// instead of falling through the cross-host math: ranksPerHost > world
// clamps to world (every rank fits on one host), and world == 1 reports the
// single-host link rate (finite, so callers dividing by it never see
// NaN/Inf) even though a 1-rank collective moves no bytes — Time returns 0
// for it.
func (f *Fabric) BusBW(coll Collective, world, ranksPerHost int) float64 {
	if world < 1 || ranksPerHost < 1 {
		panic(fmt.Sprintf("netsim: bad world %d / ranksPerHost %d", world, ranksPerHost))
	}
	if ranksPerHost > world {
		ranksPerHost = world
	}
	if world == 1 {
		if coll == AlltoAll {
			return intraEffAlltoAll * f.Gen.ScaleUpGBps
		}
		return intraEffAllReduce * f.Gen.ScaleUpGBps
	}
	hosts := float64(world) / float64(ranksPerHost)
	switch coll {
	case AlltoAll:
		if ranksPerHost == world { // single host: pure NVLink
			return intraEffAlltoAll * f.Gen.ScaleUpGBps
		}
		return f.alltoallCrossBusBW(world, ranksPerHost)
	case AllReduce, ReduceScatter, AllGather:
		if ranksPerHost == world {
			return intraEffAllReduce * f.Gen.ScaleUpGBps
		}
		// Measured A100 curve (indexed by world size at 8 ranks/host),
		// scaled by the NIC ratio. For sparser layouts (ranksPerHost < 8)
		// index by the equivalent 8-per-host world spanning as many hosts.
		eqWorld := hosts * 8
		return interpLog2(arBusBWA100, eqWorld) * f.nicScale()
	default:
		panic("netsim: unknown collective " + coll.String())
	}
}

// alltoallCrossBusBW implements the overlap model: cross-host chunks ride
// the per-GPU NIC, intra-host chunks ride NVLink, the two overlap, and the
// result is degraded by the fitted congestion efficiency η(world).
func (f *Fabric) alltoallCrossBusBW(world, ranksPerHost int) float64 {
	n := float64(world)
	bwCross := f.Gen.ScaleOutGBps()
	bwIntra := intraEffAlltoAll * f.Gen.ScaleUpGBps
	crossChunks := n - float64(ranksPerHost)
	intraChunks := float64(ranksPerHost) - 1
	// Per unit of send-buffer size S: each chunk is S/n.
	crossTime := crossChunks / n / bwCross
	intraTime := intraChunks / n / bwIntra
	perByte := math.Max(crossTime, intraTime)
	ideal := (n - 1) / n / perByte
	eta := interpLog2(a2aEta, n)
	if ranksPerHost == 1 {
		// Sparse layout (one rank per host — SPTT's peer AlltoAlls): each
		// rank owns its NIC outright, so the congestion component of the
		// degradation is roughly halved in log space. The calibration
		// points (8 ranks/host) are unaffected.
		eta = math.Sqrt(eta)
	}
	return ideal * eta
}

// Time returns the predicted wall-clock seconds for a collective moving
// bytes per rank. Degenerate inputs cost nothing: a 1-rank world exchanges
// with nobody and a 0-byte payload never leaves the GPU, so both return 0
// rather than a latency floor (the collective would be elided entirely).
func (f *Fabric) Time(coll Collective, world, ranksPerHost int, bytes int) float64 {
	if world == 1 || bytes <= 0 {
		return 0
	}
	bw := f.BusBW(coll, world, ranksPerHost) * 1e9
	n := float64(world)
	var factor float64
	switch coll {
	case AllReduce:
		factor = 2 * (n - 1) / n
	case AlltoAll, ReduceScatter, AllGather:
		factor = (n - 1) / n
	}
	latency := f.Alpha * math.Ceil(math.Log2(n))
	return latency + float64(bytes)*factor/bw
}

// P2PTime predicts the wall-clock seconds one point-to-point message of
// nbytes takes between two ranks: the fitted per-message latency constant
// for the fabric the pair shares plus serialization over that link — NVLink
// inside a host, the per-GPU NIC across hosts. This is the per-message cost
// the comm runtime's simulated-latency mode (comm.Network) charges, from
// which the modeled collective times emerge message by message; empty
// messages (barrier tokens) still pay the latency constant.
func (f *Fabric) P2PTime(nbytes int, sameHost bool) float64 {
	if nbytes < 0 {
		panic(fmt.Sprintf("netsim: p2p message of %d bytes", nbytes))
	}
	if sameHost {
		return p2pLatencyIntra + float64(nbytes)/(f.Gen.ScaleUpGBps*1e9)
	}
	return p2pLatencyCross + float64(nbytes)/(f.Gen.ScaleOutGBps()*1e9)
}

// RoundTrip predicts one request/response exchange between two ranks: the
// request message out plus the response message back, each priced by
// P2PTime. It is the per-round cost the serving simulator charges a replica
// that must fetch embedding rows from a disaggregated store (request = the
// miss IDs, response = the rows), and the remote embedding tier's round
// structure follows the same shape.
func (f *Fabric) RoundTrip(reqBytes, respBytes int, sameHost bool) float64 {
	return f.P2PTime(reqBytes, sameHost) + f.P2PTime(respBytes, sameHost)
}

// Figure5Point is one (world size, bus bandwidth) sample of the scalability
// curve, used to regenerate Figure 5.
type Figure5Point struct {
	GPUs  int
	BusBW float64
}

// Figure5Curve computes the modeled weak-scaling curve for a collective on
// this fabric at the paper's world sizes (8–512 GPUs, 8 GPUs/host).
func (f *Fabric) Figure5Curve(coll Collective) []Figure5Point {
	var out []Figure5Point
	for _, n := range []int{8, 16, 32, 64, 128, 256, 512} {
		rph := f.GPUsPerHost
		if n < rph {
			rph = n
		}
		out = append(out, Figure5Point{GPUs: n, BusBW: f.BusBW(coll, n, rph)})
	}
	return out
}

// PaperFigure5 returns the paper's measured A100 values for comparison in
// tests and `dmt-bench -exp fig5`.
func PaperFigure5(coll Collective) []Figure5Point {
	switch coll {
	case AllReduce:
		return []Figure5Point{{8, 163}, {16, 134}, {32, 111}, {64, 91}, {128, 81}, {256, 74}, {512, 65}}
	case AlltoAll:
		return []Figure5Point{{8, 155}, {16, 38}, {32, 24}, {64, 16}, {128, 16}, {256, 15}, {512, 13}}
	default:
		return nil
	}
}
