package main

import (
	"bytes"
	"math"
	"os"
	"regexp"
	"strings"
	"testing"
)

// The contract's shapes for a name and a unit.
var (
	metricNameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE       = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// The driver refuses a BENCHMARK.json outside these limits before a single
// run, so they are checked here, where it is cheap.
func TestCatalogueMeetsTheContractLimits(t *testing.T) {
	if n := len(workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads, contract allows 2..8", n)
	}
	if n := len(endToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics, contract allows 1..16", n)
	}
	if n := len(perLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, contract allows 1..128", n)
	}
	seen := map[string]bool{}
	name := func(kind, n string) {
		if !metricNameRE.MatchString(n) {
			t.Errorf("%s name %q does not match %v", kind, n, metricNameRE)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}
	for _, w := range workloads {
		name("workload", w.name)
		if w.why == "" || len(w.why) > 200 || strings.ContainsAny(w.why, "\n\r") {
			t.Errorf("workload %s: why must be one line of 1..200 characters, has %d", w.name, len(w.why))
		}
		if w.run == nil {
			t.Errorf("workload %s has no run function", w.name)
		}
	}
	var setup *metricDef
	for i, d := range endToEnd {
		name("end-to-end", d.name)
		if d.bound <= 0 || d.bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", d.name, d.bound)
		}
		if d.name == "setup_s" {
			setup = &endToEnd[i]
		}
	}
	if setup == nil || setup.unit != "s" || setup.better != "lower" {
		t.Fatal("end-to-end metrics must include setup_s, unit s, better lower")
	}
	for _, d := range endToEnd {
		if d.bound > setup.bound {
			t.Errorf("%s: bound %v exceeds setup_s's %v, which must be the largest", d.name, d.bound, setup.bound)
		}
	}
	for _, d := range perLayer {
		name("per-layer", d.name)
		if !strings.Contains(d.name, ".") {
			t.Errorf("per-layer metric %q is not named <module>.<metric>", d.name)
		}
		if d.bound != 0 {
			t.Errorf("per-layer metric %s carries a bound", d.name)
		}
	}
	for _, d := range allMetrics() {
		if !unitRE.MatchString(d.unit) {
			t.Errorf("%s: unit %q does not match %v", d.name, d.unit, unitRE)
		}
		if d.better != "lower" && d.better != "higher" {
			t.Errorf("%s: better = %q", d.name, d.better)
		}
		if d.doc == "" {
			t.Errorf("%s has no definition", d.name)
		}
		if d.exact != "" && d.exact != "all" && findWorkload(d.exact) == nil {
			t.Errorf("%s: exact on unknown workload %q", d.name, d.exact)
		}
	}
	if nominalSeconds < 1 || nominalSeconds > 60 {
		t.Errorf("run_seconds %d outside 1..60", nominalSeconds)
	}
}

// BENCHMARK.json is the catalogue rendered; a hand edit of either side
// fails here. Regenerate with `go run ./benchmark -manifest > BENCHMARK.json`.
func TestBenchmarkJSONIsTheCatalogue(t *testing.T) {
	want, err := manifest()
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("BENCHMARK.json differs from `go run ./benchmark -manifest`:\n--- committed\n%s\n--- catalogue\n%s", got, want)
	}
	if len(want) > 64<<10 {
		t.Errorf("BENCHMARK.json is %d bytes, contract allows 64 KiB", len(want))
	}
}

func TestResultLineHasExactlyTheContractKeys(t *testing.T) {
	rep := newReport()
	rep.op(10)
	for _, d := range endToEnd {
		rep.set(d.name, 1.5)
	}
	line, err := resultLine(rep, endToEnd)
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{`"correct":true`, `"attempted":10`, `"failed":0`, `"metrics":{`, `"setup_s":{"value":1.5,"unit":"s"}`} {
		if !strings.Contains(line, key) {
			t.Errorf("result line lacks %s: %s", key, line)
		}
	}
	if strings.Contains(line, "\n") {
		t.Error("result must be one line")
	}
	rep.fail("boom")
	line, _ = resultLine(rep, endToEnd)
	if !strings.Contains(line, `"correct":false`) || !strings.Contains(line, `"failed":1`) {
		t.Errorf("failed run renders as %s", line)
	}
	rep.set("setup_s", math.NaN())
	if _, err := resultLine(rep, endToEnd); err == nil {
		t.Error("a NaN metric must be refused, not printed")
	}
}
