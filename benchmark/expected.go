package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
)

// The modelled system's end-to-end figures are exact per seed, but each
// belongs to one class of workload, and the driver's contract admits to the
// bounded end-to-end list only what every workload reports. Their bounds
// are therefore held here: expected.json commits each figure's value for
// every seed in a fixed range, and a run at the nominal size on one of
// those seeds fails (as an output check) if a figure is worse than its
// committed value by more than the guard's bound. A better value passes; a
// benchmark-only change then commits it (`-expected n`).

// guards are ISSUE.md rule 8's bounds on the exact metrics: 0.5 % on
// virtual-clock times and byte counts, 0.1 % on the loss, nothing on the
// SLO share. (error_share's bound of 0 is the exit code: any failed
// operation fails the run.)
type guard struct {
	name  string
	on    string  // prefix of the workloads that report it
	bound float64 // share of the committed value it may worsen by
}

var guards = []guard{
	{"distributed.modeled_step_us", "train_", 0.005},
	{"distributed.cross_host_bytes_per_sample", "train_", 0.005},
	{"distributed.loss_final", "train_", 0.001},
	{"cluster.sim_latency_p99_us", "sim_", 0.005},
	{"cluster.sim_slo_share", "sim_", 0},
}

func guardsOn(workload string) []guard {
	var out []guard
	for _, g := range guards {
		if strings.HasPrefix(workload, g.on) {
			out = append(out, g)
		}
	}
	return out
}

// expectedTable is workload → seed → metric → committed value.
type expectedTable map[string]map[string]map[string]float64

//go:embed expected.json
var expectedJSON []byte

func loadExpected() (expectedTable, error) {
	var t expectedTable
	if err := json.Unmarshal(expectedJSON, &t); err != nil {
		return nil, fmt.Errorf("expected.json: %w", err)
	}
	return t, nil
}

func metricByName(name string) metricDef {
	for _, d := range allMetrics() {
		if d.name == name {
			return d
		}
	}
	return metricDef{} // not reached: a test holds every guard to the catalogue
}

// checkExpected holds the run's guarded metrics to the values committed for
// its seed, counting each comparison as an operation and each one over its
// bound as a failure. It reports whether the table had the seed.
func checkExpected(rep *report, table expectedTable, workload string, seed uint64) bool {
	want, ok := table[workload][strconv.FormatUint(seed, 10)]
	if !ok {
		return false
	}
	for _, g := range guardsOn(workload) {
		rep.op(1)
		w, ok := want[g.name]
		if !ok {
			rep.fail("expected.json has no %s for %s seed %d", g.name, workload, seed)
			continue
		}
		got := rep.values[g.name]
		if worse := worsening(metricByName(g.name), w, got); worse > g.bound {
			rep.fail("%s = %v is %.3f%% worse than the committed %v (bound %.1f%%)", g.name, got, worse*100, w, g.bound*100)
		}
	}
	return true
}

// runExpected measures the guarded metrics on seeds 0..n-1 of every
// workload that has any and prints expected.json. The runs compare
// themselves against the file as committed: to commit a deliberate
// worsening, empty the file to `{}` first.
func runExpected(n int, stdout, stderr io.Writer) int {
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(stderr, "benchmark: -expected:", err)
		return 1
	}
	table := expectedTable{}
	for _, w := range workloads {
		gs := guardsOn(w.name)
		if len(gs) == 0 {
			continue
		}
		table[w.name] = map[string]map[string]float64{}
		for seed := 0; seed < n; seed++ {
			res, err := runOnce(exe, w.name, seed, nominalSeconds)
			if err != nil {
				fmt.Fprintln(stderr, "benchmark: -expected:", err)
				return 1
			}
			vals := map[string]float64{}
			for _, g := range gs {
				vals[g.name] = res.Metrics[g.name].Value
			}
			table[w.name][strconv.Itoa(seed)] = vals
			fmt.Fprintf(stderr, "%s seed %d done\n", w.name, seed)
		}
	}
	b, err := json.MarshalIndent(table, "", " ")
	if err != nil {
		fmt.Fprintln(stderr, "benchmark: -expected:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", b)
	return 0
}
