package topology

import (
	"strings"
	"testing"
)

func TestTable1Values(t *testing.T) {
	// The exact Table 1 numbers: compute grew 63x while scale-out grew 4x.
	if V100.PeakTFlops != 15.7 || A100.PeakTFlops != 156 || H100.PeakTFlops != 989 {
		t.Fatal("Table 1 peak flops wrong")
	}
	if V100.ScaleOutGbps != 100 || A100.ScaleOutGbps != 200 || H100.ScaleOutGbps != 400 {
		t.Fatal("Table 1 scale-out wrong")
	}
	if V100.ScaleUpGBps != 150 || A100.ScaleUpGBps != 300 || H100.ScaleUpGBps != 450 {
		t.Fatal("Table 1 scale-up wrong")
	}
	computeGrowth := H100.PeakTFlops / V100.PeakTFlops
	netGrowth := H100.ScaleOutGbps / V100.ScaleOutGbps
	if computeGrowth < 60 || netGrowth > 4 {
		t.Fatalf("§1's divergence claim: compute %vx vs net %vx", computeGrowth, netGrowth)
	}
}

// TestBandwidthGapIsLarge: scale-up over scale-out per-GPU bandwidth, the
// heterogeneity factor SPTT exploits (NVLink vs RDMA), is large on every
// generation.
func TestBandwidthGapIsLarge(t *testing.T) {
	for _, g := range Generations() {
		if gap := g.ScaleUpGBps / g.ScaleOutGBps(); gap < 9 {
			t.Fatalf("%s scale-up/scale-out gap %v; hierarchy premise broken", g.Name, gap)
		}
	}
}

func TestByName(t *testing.T) {
	g, err := ByName("A100")
	if err != nil || g.Name != "A100" {
		t.Fatalf("ByName failed: %v %v", g, err)
	}
	if _, err := ByName("TPU"); err == nil {
		t.Fatal("unknown generation must error")
	}
}

func TestClusterLayout(t *testing.T) {
	c := NewCluster(H100, 64)
	if c.Hosts != 8 || c.GPUs() != 64 {
		t.Fatalf("cluster layout wrong: %+v", c)
	}
	if !strings.Contains(c.String(), "64xH100") {
		t.Fatalf("String: %s", c.String())
	}
}

func TestClusterRejectsPartialHosts(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewCluster(A100, 12)
}
