// Package topology models the data center hardware the paper evaluates on:
// GPU generations (Table 1), hosts with fast scale-up (NVLink) interconnect,
// and a full-bisection scale-out (RDMA) fabric between hosts (§5.1).
//
// The central quantity is the bandwidth hierarchy: scale-up bandwidth per
// GPU is 1–2 orders of magnitude higher than scale-out bandwidth per GPU,
// and the gap widened with every generation while compute grew 60× — the
// mismatch DMT exists to exploit.
package topology

import "fmt"

// Generation describes one hardware generation as reported in Table 1 of
// the paper.
type Generation struct {
	Name string
	Year int
	// PeakTFlops is the peak floating-point performance per GPU in TF/s.
	PeakTFlops float64
	// ScaleOutGbps is the per-GPU network (RDMA NIC) bandwidth in Gbit/s.
	ScaleOutGbps float64
	// ScaleUpGBps is the per-GPU unidirectional NVLink bandwidth in GB/s.
	ScaleUpGBps float64
	// HBMGBps is the device memory bandwidth in GB/s (manufacturer specs;
	// not in Table 1 but needed to cost SPTT's local data shuffles).
	HBMGBps float64
}

// Table 1 of the paper: recent generational upgrades. HBM bandwidths are
// the public device specifications.
var (
	V100 = Generation{Name: "V100", Year: 2019, PeakTFlops: 15.7, ScaleOutGbps: 100, ScaleUpGBps: 150, HBMGBps: 900}
	A100 = Generation{Name: "A100", Year: 2022, PeakTFlops: 156, ScaleOutGbps: 200, ScaleUpGBps: 300, HBMGBps: 2039}
	H100 = Generation{Name: "H100", Year: 2023, PeakTFlops: 989, ScaleOutGbps: 400, ScaleUpGBps: 450, HBMGBps: 3350}
)

// Generations lists the three generations in chronological order.
func Generations() []Generation { return []Generation{V100, A100, H100} }

// ByName returns the generation with the given name.
func ByName(name string) (Generation, error) {
	for _, g := range Generations() {
		if g.Name == name {
			return g, nil
		}
	}
	return Generation{}, fmt.Errorf("topology: unknown generation %q", name)
}

// ScaleOutGBps converts the NIC rate to GB/s.
func (g Generation) ScaleOutGBps() float64 { return g.ScaleOutGbps / 8 }

// Cluster is a training cluster: identical hosts, each with GPUsPerHost
// GPUs, full bisection bandwidth across hosts (§5.1: "Our infrastructure
// guarantees full bisection bandwidth between any pair of hosts").
type Cluster struct {
	Gen         Generation
	Hosts       int
	GPUsPerHost int
}

// NewCluster builds a cluster of the given total GPU count with the
// standard 8 GPUs per host used throughout the paper's evaluation.
func NewCluster(gen Generation, gpus int) Cluster {
	const l = 8
	if gpus%l != 0 || gpus == 0 {
		panic(fmt.Sprintf("topology: GPU count %d not a multiple of %d", gpus, l))
	}
	return Cluster{Gen: gen, Hosts: gpus / l, GPUsPerHost: l}
}

// GPUs returns the total GPU count.
func (c Cluster) GPUs() int { return c.Hosts * c.GPUsPerHost }

// String renders "64xH100 (8 hosts)".
func (c Cluster) String() string {
	return fmt.Sprintf("%dx%s (%d hosts)", c.GPUs(), c.Gen.Name, c.Hosts)
}
