// SPTT walkthrough: the paper's Figure 7 example — 4 GPUs on 2 hosts, 4
// single-hot features in 2 towers — executed as real dataflow, with the
// transform's output checked bit-for-bit against the classic global
// AlltoAll (Figure 4) and the traffic split into NVLink vs RDMA bytes.
//
//	go run ./examples/sptt_walkthrough
package main

import (
	"fmt"

	"dmt/internal/comm"

	"dmt/internal/sptt"
	"dmt/internal/topology"
	"dmt/internal/towers"
)

func main() {
	// Figure 7's setup: G=4, L=2, so T=2 towers. Tower 0 owns features 0,1
	// (host 0); tower 1 owns features 2,3 (host 1). One sample per GPU.
	const g, l, b, n = 4, 2, 1, 2
	cfg := sptt.Config{
		G: g, L: l, B: b, N: n,
		Features: []sptt.FeatureSpec{
			{Name: "orange", Cardinality: 4, Hot: 1},
			{Name: "red", Cardinality: 4, Hot: 1},
			{Name: "blue", Cardinality: 4, Hot: 1},
			{Name: "green", Cardinality: 4, Hot: 1},
		},
		TowerOf: []int{0, 0, 1, 1},
		RankOf:  []int{0, 1, 2, 3},
	}
	eng, err := sptt.NewEngine(cfg, 1)
	if err != nil {
		panic(err)
	}
	// Make table values readable: feature f, row r holds (10f+r, 10f+r+.5),
	// so V_k = value of feature k%4 for sample k/4 is identifiable.
	for f, e := range eng.Tables {
		for r := 0; r < 4; r++ {
			e.Table.Set(float32(10*f+r), r, 0)
			e.Table.Set(float32(10*f+r)+0.5, r, 1)
		}
	}
	// Rank r's sample uses index r for every feature, mirroring the paper's
	// I_{4r+k} labeling.
	inputs := make([]*sptt.Inputs, g)
	for r := 0; r < g; r++ {
		in := &sptt.Inputs{Indices: make([][]int32, 4), Offsets: make([][]int32, 4)}
		for f := 0; f < 4; f++ {
			in.Indices[f] = []int32{int32(r)}
			in.Offsets[f] = []int32{0}
		}
		inputs[r] = in
	}

	fmt.Println("Peer order for G=4, L=2 (paper: 0,2,1,3):", sptt.PeerOrder(g, l))

	base, bst := eng.BaselineForward(inputs)
	out, sst := eng.SPTTForward(inputs, sptt.Options{})

	fmt.Println("\nPer-rank embeddings after distribution (feature-major, value V[f][sample]):")
	for r := 0; r < g; r++ {
		fmt.Printf("  GPU %d:", r)
		for f := 0; f < 4; f++ {
			fmt.Printf("  V%d=%.0f", 4*r+f, out[r].At(0, f, 0)) // V_{4r+f}
		}
		equal := base[r].Equal(out[r])
		fmt.Printf("   (matches global AlltoAll: %v)\n", equal)
		if !equal {
			panic("semantic preservation violated")
		}
	}

	cluster := topology.Cluster{Gen: topology.A100, Hosts: 2, GPUsPerHost: 2}
	sum := func(m [][]int64) (intra, cross int64) { return comm.SplitByHost(m, cluster.GPUsPerHost) }
	bIntra, bCross := sum(bst.GlobalTraffic)
	_, gCross := sum(sst.GlobalTraffic)
	hIntra, hCross := sum(sst.HostTraffic)
	pIntra, pCross := sum(sst.PeerTraffic)

	fmt.Println("\nTraffic accounting (bytes):")
	fmt.Printf("  baseline global AlltoAll:   intra-host %4d  cross-host %4d\n", bIntra, bCross)
	fmt.Printf("  SPTT step (a) indices:      cross-host %4d\n", gCross)
	fmt.Printf("  SPTT step (d) intra-host:   intra-host %4d  cross-host %4d (NVLink domain)\n", hIntra, hCross)
	fmt.Printf("  SPTT step (f) peer A2A:     intra-host %4d  cross-host %4d (world T=%d)\n", pIntra, pCross, cfg.T())
	fmt.Println("\nSPTT moved the intra-host share onto NVLink and shrank the cross-host")
	fmt.Println("collective's world from G=4 to T=2 — with bit-identical results (§3.1).")

	// The compressed variant: a pass-through tower has CR=1 and must also
	// be exact; a real tower module would shrink step (f)'s bytes by CR.
	mods := make([]sptt.TowerModule, g)
	for r := 0; r < g; r++ {
		mods[r] = towers.NewPassThrough(2, n)
	}
	comp, _ := eng.SPTTForwardCompressed(inputs, mods, sptt.Options{})
	fmt.Printf("\ncompressed-path output width per rank: %d (= F x N with pass-through towers)\n",
		comp[0].Dim(1))
}
