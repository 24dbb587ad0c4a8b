package main

import (
	"strconv"
	"testing"
)

func TestGuardsNameExactCatalogueMetrics(t *testing.T) {
	for _, g := range guards {
		d := metricByName(g.name)
		if d.name == "" || d.exact != "all" {
			t.Errorf("guard %s: not an exact metric of the catalogue", g.name)
		}
		if len(guardsOn(g.on+"x")) == 0 {
			t.Errorf("guard %s: prefix %q matches nothing", g.name, g.on)
		}
	}
	if gs := guardsOn("serve_hot"); len(gs) != 0 {
		t.Errorf("serve workloads have no virtual clock, yet are guarded by %v", gs)
	}
}

func TestCheckExpected(t *testing.T) {
	table := expectedTable{"train_dense": {"3": {
		"distributed.modeled_step_us":             100,
		"distributed.cross_host_bytes_per_sample": 2000,
		"distributed.loss_final":                  0.5,
	}}, "sim_fleet": {"3": {
		"cluster.sim_latency_p99_us": 400,
		"cluster.sim_slo_share":      0.9,
	}}}
	run := func(workload string, seed uint64, vals map[string]float64) *report {
		rep := newReport()
		rep.values = vals
		if had := checkExpected(rep, table, workload, seed); had != (seed == 3) {
			t.Errorf("%s seed %d: table hit = %v", workload, seed, had)
		}
		return rep
	}
	// Within every bound, one of them better: passes.
	rep := run("train_dense", 3, map[string]float64{
		"distributed.modeled_step_us":             100.4, // +0.4 % of 0.5 %
		"distributed.cross_host_bytes_per_sample": 1500,  // better
		"distributed.loss_final":                  0.5004,
	})
	if rep.failed != 0 || rep.attempted != 3 {
		t.Errorf("in-bound run: attempted %d failed %d %v", rep.attempted, rep.failed, rep.problems)
	}
	// Step time 0.6 % worse, loss 0.2 % worse: two failures.
	rep = run("train_dense", 3, map[string]float64{
		"distributed.modeled_step_us":             100.6,
		"distributed.cross_host_bytes_per_sample": 2000,
		"distributed.loss_final":                  0.501,
	})
	if rep.failed != 2 {
		t.Errorf("out-of-bound run: failed %d, want 2: %v", rep.failed, rep.problems)
	}
	// The SLO share is higher-is-better and may not drop at all.
	rep = run("sim_fleet", 3, map[string]float64{"cluster.sim_latency_p99_us": 400, "cluster.sim_slo_share": 0.8999})
	if rep.failed != 1 {
		t.Errorf("dropped SLO share: failed %d, want 1: %v", rep.failed, rep.problems)
	}
	rep = run("sim_fleet", 3, map[string]float64{"cluster.sim_latency_p99_us": 390, "cluster.sim_slo_share": 0.95})
	if rep.failed != 0 {
		t.Errorf("improved sim run failed: %v", rep.problems)
	}
	// A seed or a workload outside the table is not compared.
	if rep = run("train_dense", 4, nil); rep.attempted != 0 {
		t.Errorf("unknown seed was compared: attempted %d", rep.attempted)
	}
	if rep = run("serve_hot", 5, nil); rep.attempted != 0 {
		t.Errorf("unguarded workload was compared: attempted %d", rep.attempted)
	}
}

// expected.json holds, for every guarded workload, seeds 0..n-1 with exactly
// that workload's guarded metrics, all non-zero.
func TestExpectedJSONIsComplete(t *testing.T) {
	table, err := loadExpected()
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range workloads {
		gs, seeds := guardsOn(w.name), table[w.name]
		if len(gs) == 0 {
			if seeds != nil {
				t.Errorf("%s has no guarded metric but %d seeds in expected.json", w.name, len(seeds))
			}
			continue
		}
		if len(seeds) == 0 {
			t.Errorf("%s: no seeds in expected.json", w.name)
		}
		for i := 0; i < len(seeds); i++ {
			vals, ok := seeds[strconv.Itoa(i)]
			if !ok {
				t.Errorf("%s: %d seeds, but seed %d is missing", w.name, len(seeds), i)
				continue
			}
			if len(vals) != len(gs) {
				t.Errorf("%s seed %d: %d values for %d guards", w.name, i, len(vals), len(gs))
			}
			for _, g := range gs {
				if vals[g.name] == 0 {
					t.Errorf("%s seed %d: %s missing or zero", w.name, i, g.name)
				}
			}
		}
	}
	if len(table) != 3 {
		t.Errorf("expected.json names %d workloads, want the 3 guarded ones", len(table))
	}
}
