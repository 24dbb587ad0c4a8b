package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"strconv"
	"strings"
)

// The A/A check measures the benchmark itself: two interleaved sets of n
// runs per workload of this same binary. It applies the driver's two
// acceptance rules to every end-to-end metric — the second set's median no
// worse than the first's by more than the bound, and (judged from ten runs
// per set up, as the driver does) each set's quartile spread within the
// bound, setup_s excepted — and a third the driver cannot: run i of both
// sets shares a seed, so every exact metric must come out bit-identical.

type runResult struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// runOnce executes one untraced run of this binary and parses its result
// line.
func runOnce(exe, workload string, seed int, seconds float64) (runResult, error) {
	var res runResult
	cmd := exec.Command(exe,
		"-workload", workload, "-seed", strconv.Itoa(seed),
		"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "-trace", "0", "-full")
	var out, errb bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &errb
	if err := cmd.Run(); err != nil {
		return res, fmt.Errorf("%s seed %d: %w: %s", workload, seed, err, strings.TrimSpace(errb.String()))
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		return res, fmt.Errorf("%s seed %d: result line: %w", workload, seed, err)
	}
	if !res.Correct {
		return res, fmt.Errorf("%s seed %d: run reported %d failed operations", workload, seed, res.Failed)
	}
	return res, nil
}

// worsening is how far b is worse than a, as a share of a, in the metric's
// direction (negative when b is better).
func worsening(d metricDef, a, b float64) float64 {
	if a == 0 {
		return 0
	}
	if d.better == "higher" {
		return (a - b) / math.Abs(a)
	}
	return (b - a) / math.Abs(a)
}

func runAA(n int, only string, seconds float64, stdout, stderr io.Writer) int {
	if n < 3 {
		fmt.Fprintln(stderr, "benchmark: -aa needs at least 3 runs per set for quartiles")
		return 2
	}
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(stderr, "benchmark: -aa:", err)
		return 1
	}
	bad := 0
	for _, w := range workloads {
		if only != "" && only != w.name {
			continue
		}
		sets := [2][]runResult{}
		for i := 0; i < n; i++ {
			for s := range sets {
				res, err := runOnce(exe, w.name, i+1, seconds)
				if err != nil {
					fmt.Fprintln(stderr, "benchmark: -aa:", err)
					return 1
				}
				sets[s] = append(sets[s], res)
			}
		}
		fmt.Fprintf(stdout, "%s  (2 x %d runs)\n", w.name, n)
		fmt.Fprintf(stdout, "  %-20s %14s %14s %8s %8s %8s %6s\n", "metric", "median A", "median B", "gap", "spread A", "spread B", "bound")
		for _, d := range endToEnd {
			var vals [2][]float64
			for s := range sets {
				for _, r := range sets[s] {
					vals[s] = append(vals[s], r.Metrics[d.name].Value)
				}
			}
			ma, mb := medianInterp(vals[0]), medianInterp(vals[1])
			gap := worsening(d, ma, mb)
			sa, sb := quartileSpread(vals[0]), quartileSpread(vals[1])
			verdict := ""
			if gap > d.bound {
				verdict, bad = "  GAP OVER BOUND", bad+1
			}
			if d.name != "setup_s" && (sa > d.bound || sb > d.bound) {
				// Quartiles of fewer than ten values sit next to the
				// extremes; below the driver's own n the spread is shown,
				// not judged.
				if n >= 10 {
					verdict, bad = verdict+"  SPREAD OVER BOUND", bad+1
				} else {
					verdict += "  (spread over bound)"
				}
			}
			fmt.Fprintf(stdout, "  %-20s %14.6g %14.6g %+7.2f%% %7.2f%% %7.2f%% %5.0f%%%s\n",
				d.name, ma, mb, gap*100, sa*100, sb*100, d.bound*100, verdict)
		}
		mismatches := 0
		for _, d := range allMetrics() {
			if !d.exactOn(w.name) {
				continue
			}
			for i := 0; i < n; i++ {
				a, b := sets[0][i].Metrics[d.name].Value, sets[1][i].Metrics[d.name].Value
				if math.Float64bits(a) != math.Float64bits(b) {
					fmt.Fprintf(stdout, "  EXACT METRIC DIFFERS: %s seed %d: %v vs %v\n", d.name, i+1, a, b)
					mismatches++
				}
			}
		}
		if mismatches == 0 {
			fmt.Fprintln(stdout, "  exact metrics: bit-identical across both sets")
		}
		bad += mismatches
	}
	if bad > 0 {
		fmt.Fprintf(stdout, "A/A check FAILED: %d finding(s)\n", bad)
		return 1
	}
	fmt.Fprintln(stdout, "A/A check passed")
	return 0
}

// medianInterp is the conventional median (mean of the two middle values
// for an even count), as the driver's statistics.median computes it.
func medianInterp(xs []float64) float64 {
	s := sortedCopy(xs)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
