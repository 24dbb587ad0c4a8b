package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
)

// stubRunSH is a checkout's benchmark/run.sh that builds nothing and runs
// no benchmark: --manifest exits with the checkout's build_exit file's
// code, and a run prints a header and a canned result line. Its
// throughput is the checkout's value file times 1.1 when the run is the
// first of its pair (a shared counter of runs, in $STUB_COUNTER, is even),
// so the first-run bias shows; its latency is 1000/value. Its modeled step,
// a figure the stub's expected.json guards, is the checkout's step file
// (10 without one), plus the run counter when the checkout has a jitter
// file. It also prints a metric it did not compute, as 0. Its "correct" is
// the checkout's correct file (true when there is none), and like the real run.sh it exits 1 when that is false. The last
// argument must be --full.
const stubRunSH = `#!/usr/bin/env bash
if [[ "$1" == "--manifest" ]]; then exit "$(cat build_exit)"; fi
n=$(cat "$STUB_COUNTER" 2>/dev/null || echo 0)
echo $((n + 1)) >"$STUB_COUNTER"
v=$(cat value)
c=$(cat correct 2>/dev/null || echo true)
step=$(cat step 2>/dev/null || echo 10)
if [[ -f jitter ]]; then step=$((step + n)); fi
if [[ "$9" != --full ]]; then echo "want --full, got $9"; exit 2; fi
f=1
if (( n % 2 == 0 )); then f=1.1; fi
echo "# workload=$2 seed=$4 seconds=$6 trace=$8 gomaxprocs=2"
echo "throughput_per_s $(awk "BEGIN{print $v*$f}") 1/s"
echo "{\"correct\":$c,\"attempted\":1,\"failed\":0,\"metrics\":{\"throughput_per_s\":{\"value\":$(awk "BEGIN{print $v*$f}"),\"unit\":\"1/s\"},\"latency_p50_ms\":{\"value\":$(awk "BEGIN{print 1000/$v}"),\"unit\":\"ms\"},\"distributed.modeled_step_us\":{\"value\":$step,\"unit\":\"us\"},\"quant.allocs_per_op\":{\"value\":0,\"unit\":\"count\"}}}"
[[ "$c" == true ]]
`

const stubManifest = `{"end_to_end": [{"name": "throughput_per_s", "better": "higher"}, {"name": "latency_p50_ms", "better": "lower"}],
 "per_layer": [{"name": "distributed.modeled_step_us", "better": "lower"}]}`

// stubExpected guards the stub's modeled step on train_dense.
const stubExpected = `{"train_dense": {"0": {"distributed.modeled_step_us": 10}}}`

// stubCheckout makes a checkout whose run.sh reports value.
func stubCheckout(t *testing.T, value string, buildExit int) string {
	t.Helper()
	dir := t.TempDir()
	must := func(err error) {
		if err != nil {
			t.Fatal(err)
		}
	}
	must(os.MkdirAll(filepath.Join(dir, "benchmark"), 0o755))
	must(os.WriteFile(filepath.Join(dir, "benchmark", "run.sh"), []byte(stubRunSH), 0o755))
	must(os.WriteFile(filepath.Join(dir, "BENCHMARK.json"), []byte(stubManifest), 0o644))
	must(os.WriteFile(filepath.Join(dir, "benchmark", "expected.json"), []byte(stubExpected), 0o644))
	must(os.WriteFile(filepath.Join(dir, "value"), []byte(value), 0o644))
	must(os.WriteFile(filepath.Join(dir, "build_exit"), []byte{byte('0' + buildExit)}, 0o644))
	return dir
}

func summaryOf(t *testing.T, l ledger, metric string) summary {
	t.Helper()
	for _, s := range l.Summary {
		if s.Metric == metric {
			return s
		}
	}
	t.Fatalf("no summary for %s in %+v", metric, l.Summary)
	return summary{}
}

func near(a, b float64) bool { return math.Abs(a-b) < 1e-3 }

// TestRunAB compares a stub checkout reporting 100 with one reporting 120
// over 4 pairs and reads the ledger back: the sides alternate going first,
// B wins every pair in each metric's direction, and the ratios and the
// first-run bias are the ones the canned values imply.
func TestRunAB(t *testing.T) {
	t.Setenv("STUB_COUNTER", filepath.Join(t.TempDir(), "n"))
	a, b, out := stubCheckout(t, "100", 0), stubCheckout(t, "120", 0), t.TempDir()
	var stdout, stderr bytes.Buffer
	args := []string{"-a", a, "-b", b, "-workloads", "train_dense", "-seeds", "1,2", "-pairs", "4", "-pr", "7", "-dir", out}
	if code := run(args, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d\nstderr:\n%s", code, &stderr)
	}
	js, err := os.ReadFile(filepath.Join(out, "BENCH_7.json"))
	if err != nil {
		t.Fatal(err)
	}
	var l ledger
	if err := json.Unmarshal(js, &l); err != nil {
		t.Fatal(err)
	}
	if l.PR != 7 || l.AA || l.GOMAXPROCS != "2" || len(l.Seeds) != 2 || len(l.Runs) != 8 ||
		len(l.Failed) != 1 || l.Failed[0] != (failedRuns{Workload: "train_dense", Runs: 4}) {
		t.Fatalf("ledger header %+v with %d runs", l, len(l.Runs))
	}
	for i, rec := range l.Runs {
		pair, first := i/2, i%2 == 0
		wantSide := map[bool]string{true: "A", false: "B"}[(pair%2 == 0) == first]
		if rec.Pair != pair || rec.Side != wantSide || (rec.Order == 1) != first || rec.Seed != uint64(1+pair%2) {
			t.Errorf("run %d: %+v, want pair %d side %s first=%v", i, rec, pair, wantSide, first)
		}
		if !strings.HasPrefix(rec.Line, `{"correct":true`) {
			t.Errorf("run %d kept %q, not the result line", i, rec.Line)
		}
	}
	thr := summaryOf(t, l, "throughput_per_s")
	// Pairs alternate (110 vs 120) and (100 vs 132): ratios 1.0909 and 1.32.
	if thr.Won != 4 || thr.Pairs != 4 || !near(thr.MedianRatio, (120.0/110+1.32)/2) ||
		!near(thr.DecileRatio, 132.0/110) || !near(thr.FirstBias, (110.0/120+1.32)/2) {
		t.Errorf("throughput summary %+v", thr)
	}
	lat := summaryOf(t, l, "latency_p50_ms")
	if lat.Won != 4 || !near(lat.MedianRatio, 100.0/120) || !near(lat.DecileRatio, 100.0/120) {
		t.Errorf("latency summary %+v", lat)
	}
	if !strings.Contains(stdout.String(), "throughput_per_s") || !strings.Contains(stdout.String(), "4/4") {
		t.Errorf("report misses the throughput row:\n%s", &stdout)
	}
}

// readLedger reads BENCH_<pr>.json back from dir.
func readLedger(t *testing.T, dir string, pr int) ledger {
	t.Helper()
	js, err := os.ReadFile(filepath.Join(dir, fmt.Sprintf("BENCH_%d.json", pr)))
	if err != nil {
		t.Fatal(err)
	}
	var l ledger
	if err := json.Unmarshal(js, &l); err != nil {
		t.Fatal(err)
	}
	return l
}

// TestRunExactFigures: a modeled step of 10 on A and 11 on B, the same on
// every run of a side, differs only across the sides. It is reported as an
// exact figure per seed, A, B and +10 % worse (lower is better), and kept
// out of the pair summary, and dmt-ab exits 0. Where both sides read 10 it
// is reported "equal" at every seed. The wall metrics keep their pair
// summary, and a metric that reads 0 on every run enters neither.
func TestRunExactFigures(t *testing.T) {
	t.Setenv("STUB_COUNTER", filepath.Join(t.TempDir(), "n"))
	a, b, out := stubCheckout(t, "100", 0), stubCheckout(t, "120", 0), t.TempDir()
	if err := os.WriteFile(filepath.Join(b, "step"), []byte("11"), 0o644); err != nil {
		t.Fatal(err)
	}
	var stdout, stderr bytes.Buffer
	args := []string{"-a", a, "-b", b, "-workloads", "train_dense,serve_cold", "-seeds", "1,2", "-pairs", "4", "-pr", "4", "-dir", out}
	if code := run(args, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d\nstderr:\n%s", code, &stderr)
	}
	l := readLedger(t, out, 4)
	if len(l.Exact) != 4 || len(l.Unstable) != 0 {
		t.Fatalf("exact figures %+v, nondeterministic %+v; want the step at 2 seeds on 2 workloads", l.Exact, l.Unstable)
	}
	for i, f := range l.Exact {
		if f.Metric != "distributed.modeled_step_us" || f.Seed != uint64(1+i%2) || f.A != 10 || f.B != 11 ||
			f.Equal || f.Change == nil || !near(*f.Change, 0.1) || f.Better != "lower" {
			t.Errorf("exact figure %d: %+v", i, f)
		}
	}
	for _, s := range l.Summary {
		if s.Metric == "distributed.modeled_step_us" || s.Metric == "quant.allocs_per_op" {
			t.Errorf("an exact or uncomputed figure entered the pair summary: %+v", s)
		}
	}
	if thr := summaryOf(t, l, "throughput_per_s"); thr.Pairs != 4 {
		t.Errorf("throughput summary %+v", thr)
	}
	if !strings.Contains(stdout.String(), "+10.0000% worse") {
		t.Errorf("report misses the exact figure's change:\n%s", &stdout)
	}

	t.Setenv("STUB_COUNTER", filepath.Join(t.TempDir(), "n"))
	stdout.Reset()
	if code := run([]string{"-a", a, "-pairs", "2", "-pr", "5", "-dir", out}, &stdout, &stderr); code != 0 {
		t.Fatalf("A/A: exit %d\nstderr:\n%s", code, &stderr)
	}
	if l := readLedger(t, out, 5); len(l.Exact) != 1 || !l.Exact[0].Equal || *l.Exact[0].Change != 0 {
		t.Errorf("A/A exact figures %+v, want the step equal", l.Exact)
	}
	if !regexp.MustCompile(`train_dense +distributed.modeled_step_us +all +equal`).MatchString(stdout.String()) {
		t.Errorf("A/A report does not call the step equal:\n%s", &stdout)
	}
}

// TestRunDeterminismFailure: a guarded figure that differs between two runs
// of one side at one seed is a determinism failure. The report and the
// ledger name it, and dmt-ab exits 1. The same jitter on a workload whose
// expected.json guards nothing only moves the figure into the pair
// summary.
func TestRunDeterminismFailure(t *testing.T) {
	t.Setenv("STUB_COUNTER", filepath.Join(t.TempDir(), "n"))
	a, b, out := stubCheckout(t, "100", 0), stubCheckout(t, "100", 0), t.TempDir()
	if err := os.WriteFile(filepath.Join(b, "jitter"), nil, 0o644); err != nil {
		t.Fatal(err)
	}
	var stdout, stderr bytes.Buffer
	args := []string{"-a", a, "-b", b, "-workloads", "train_dense,serve_cold", "-pairs", "2", "-pr", "6", "-dir", out}
	if code := run(args, &stdout, &stderr); code != 1 || !strings.Contains(stderr.String(), "determinism failure") {
		t.Fatalf("exit %d, stderr %q; want exit 1 naming the determinism failure", code, &stderr)
	}
	if !strings.Contains(stdout.String(), "distributed.modeled_step_us differs between side B's runs at seed 1") {
		t.Errorf("report does not name the unstable figure:\n%s", &stdout)
	}
	l := readLedger(t, out, 6)
	if len(l.Unstable) != 1 || l.Unstable[0].Workload != "train_dense" || l.Unstable[0].Side != "B" || len(l.Unstable[0].Values) != 2 {
		t.Errorf("ledger nondeterministic %+v", l.Unstable)
	}
	var inSummary []string
	for _, s := range l.Summary {
		if s.Metric == "distributed.modeled_step_us" {
			inSummary = append(inSummary, s.Workload)
		}
	}
	if len(l.Exact) != 0 || !slices.Equal(inSummary, []string{"train_dense", "serve_cold"}) {
		t.Errorf("exact figures %+v, step summarized on %v; want none exact and both workloads summarized", l.Exact, inSummary)
	}
}

// TestRunAA runs one stub checkout against itself: no change by median
// (the order effect cancels over alternating pairs), and the first-run
// bias is the stub's 1.1.
func TestRunAA(t *testing.T) {
	t.Setenv("STUB_COUNTER", filepath.Join(t.TempDir(), "n"))
	a := stubCheckout(t, "100", 0)
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-a", a, "-pairs", "4", "-workloads", "serve_cold"}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d\nstderr:\n%s", code, &stderr)
	}
	if !strings.Contains(stdout.String(), "dmt-ab A/A") {
		t.Errorf("report does not say A/A:\n%s", &stdout)
	}
	for _, line := range strings.Split(stdout.String(), "\n") {
		if f := strings.Fields(line); len(f) == 6 && f[1] == "throughput_per_s" {
			if f[2] != "1.0045" || f[5] != "1.1000" {
				t.Errorf("A/A throughput row %q: want median 1.0045 and first-run bias 1.1000", line)
			}
			return
		}
	}
	t.Errorf("no throughput row:\n%s", &stdout)
}

// TestRunFailures: bad flags exit 2 before anything runs, a repeated
// workload and malformed pair counts among them; a side whose build fails
// exits 1 naming the side.
func TestRunFailures(t *testing.T) {
	t.Setenv("STUB_COUNTER", filepath.Join(t.TempDir(), "n"))
	good, broken := stubCheckout(t, "100", 0), stubCheckout(t, "100", 1)
	for _, tc := range []struct {
		args     []string
		code     int
		inStderr string
	}{
		{[]string{"-bogus"}, 2, "flag provided but not defined"},
		{[]string{"-pairs", "3"}, 2, "-a is required"},
		{[]string{"-a", good, "-seeds", "x"}, 2, "bad -seeds"},
		{[]string{"-a", good, "-pairs", "0"}, 2, "not a positive pair count"},
		{[]string{"-a", good, "-pairs", "3,x=2"}, 2, "x is not in -workloads"},
		{[]string{"-a", good, "-pairs", "3,4"}, 2, "every workload has two counts"},
		{[]string{"-a", good, "-pairs", "train_dense=2,train_dense=3"}, 2, "train_dense has two counts"},
		{[]string{"-a", good, "-pairs", "train_dense=-1"}, 2, "not a positive pair count"},
		{[]string{"-a", good, "-workloads", "serve_hot,train_dense,serve_hot"}, 2, "must name each workload once"},
		{[]string{"-a", good, "-workloads", "serve_hot,"}, 2, "must name each workload once"},
		{[]string{"-a", good, "-b", broken}, 1, "building side B"},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(tc.args, &stdout, &stderr); code != tc.code || !strings.Contains(stderr.String(), tc.inStderr) {
			t.Errorf("%v: exit %d, stderr %q; want exit %d mentioning %q", tc.args, code, &stderr, tc.code, tc.inStderr)
		}
	}
}

// TestRunCountsFailedRuns: a side whose runs print "correct":false and exit
// 1 still enters the summary, but the report and the ledger count its
// failed runs and dmt-ab exits 1.
func TestRunCountsFailedRuns(t *testing.T) {
	t.Setenv("STUB_COUNTER", filepath.Join(t.TempDir(), "n"))
	a, b, out := stubCheckout(t, "100", 0), stubCheckout(t, "120", 0), t.TempDir()
	if err := os.WriteFile(filepath.Join(b, "correct"), []byte("false"), 0o644); err != nil {
		t.Fatal(err)
	}
	var stdout, stderr bytes.Buffer
	args := []string{"-a", a, "-b", b, "-pairs", "2", "-pr", "3", "-dir", out}
	if code := run(args, &stdout, &stderr); code != 1 || !strings.Contains(stderr.String(), "some runs failed") {
		t.Fatalf("exit %d, stderr %q; want exit 1 naming the failed runs", code, &stderr)
	}
	if !strings.Contains(stdout.String(), "A 0/2, B 2/2") {
		t.Errorf("report does not count B's failed runs:\n%s", &stdout)
	}
	js, err := os.ReadFile(filepath.Join(out, "BENCH_3.json"))
	if err != nil {
		t.Fatal(err)
	}
	var l ledger
	if err := json.Unmarshal(js, &l); err != nil {
		t.Fatal(err)
	}
	if len(l.Failed) != 1 || l.Failed[0] != (failedRuns{Workload: "train_dense", B: 2, Runs: 2}) {
		t.Errorf("ledger failed counts %+v", l.Failed)
	}
	if thr := summaryOf(t, l, "throughput_per_s"); thr.Pairs != 2 {
		t.Errorf("throughput summary %+v, want both pairs", thr)
	}
}

// TestRunPerWorkloadPairs: -pairs gives one workload its own count and the
// rest the bare one, in one invocation and one ledger: the runs, the
// failed-run counts and the summaries follow each workload's count.
func TestRunPerWorkloadPairs(t *testing.T) {
	t.Setenv("STUB_COUNTER", filepath.Join(t.TempDir(), "n"))
	a, b, out := stubCheckout(t, "100", 0), stubCheckout(t, "120", 0), t.TempDir()
	var stdout, stderr bytes.Buffer
	args := []string{"-a", a, "-b", b, "-workloads", "train_dense,sim_fleet,serve_cold",
		"-pairs", "sim_fleet=3,2", "-pr", "9", "-dir", out}
	if code := run(args, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d\nstderr:\n%s", code, &stderr)
	}
	js, err := os.ReadFile(filepath.Join(out, "BENCH_9.json"))
	if err != nil {
		t.Fatal(err)
	}
	var l ledger
	if err := json.Unmarshal(js, &l); err != nil {
		t.Fatal(err)
	}
	want := map[string]int{"train_dense": 2, "sim_fleet": 3, "serve_cold": 2}
	runs := map[string]int{}
	for _, rec := range l.Runs {
		runs[rec.Workload]++
	}
	for w, n := range want {
		if runs[w] != 2*n {
			t.Errorf("%s ran %d times, want %d", w, runs[w], 2*n)
		}
	}
	if len(l.Failed) != 3 {
		t.Fatalf("ledger failed counts %+v, want one per workload", l.Failed)
	}
	for _, f := range l.Failed {
		if f.Runs != want[f.Workload] {
			t.Errorf("%s failed-run count out of %d pairs, want %d", f.Workload, f.Runs, want[f.Workload])
		}
	}
	for _, s := range l.Summary {
		if s.Pairs != want[s.Workload] {
			t.Errorf("%s %s summarizes %d pairs, want %d", s.Workload, s.Metric, s.Pairs, want[s.Workload])
		}
	}
}

// stubGo is a go command that builds no test binary: `go test -c -o X pkg`,
// run from a checkout, appends the build to $STUB_GOLOG, exits with the
// checkout's go_exit file's code (0 without one: run.sh's build still
// passes), and otherwise writes to X a stub test
// binary. The binary prints one benchmark row whose ns/op is the checkout's
// value file times 1.1 when the run is the first of its round (the shared
// $STUB_COUNTER is even), with value·1000 B/op and value allocs/op, and a
// second row when the checkout has an extra file.
const stubGo = `#!/usr/bin/env bash
echo "$PWD $*" >>"$STUB_GOLOG"
code=$(cat go_exit 2>/dev/null || echo 0)
if [[ "$code" != 0 ]]; then echo "stub build failed"; exit "$code"; fi
root=$PWD
cat >"$4" <<STUB
#!/usr/bin/env bash
n=\$(cat "\$STUB_COUNTER" 2>/dev/null || echo 0)
echo \$((n + 1)) >"\$STUB_COUNTER"
v=\$(cat "$root/value")
f=1
if (( n % 2 == 0 )); then f=1.1; fi
echo "goos: linux"
echo "BenchmarkHotpathTrainStep/train_dense-2   	     100	 \$(awk "BEGIN{print \$v*\$f}") ns/op	 \$((v * 1000)) B/op	 \$v allocs/op"
if [[ -f "$root/extra" ]]; then echo "BenchmarkHotpathNew-2   	 5	 7 ns/op	 0 B/op	 0 allocs/op"; fi
echo PASS
STUB
chmod +x "$4"
`

// stubLayers makes the stub checkouts' package directory and puts the stub
// go command first on PATH.
func stubLayers(t *testing.T, dirs ...string) string {
	t.Helper()
	bin := t.TempDir()
	if err := os.WriteFile(filepath.Join(bin, "go"), []byte(stubGo), 0o755); err != nil {
		t.Fatal(err)
	}
	t.Setenv("PATH", bin+string(os.PathListSeparator)+os.Getenv("PATH"))
	t.Setenv("STUB_COUNTER", filepath.Join(t.TempDir(), "n"))
	log := filepath.Join(t.TempDir(), "golog")
	t.Setenv("STUB_GOLOG", log)
	for _, d := range dirs {
		if err := os.MkdirAll(filepath.Join(d, "internal", "distributed"), 0o755); err != nil {
			t.Fatal(err)
		}
	}
	return log
}

// TestRunLayers compares a stub checkout's layer row at 100 ns/op with one
// at 80 over 4 rounds, after 4 pairs of a workload: each side builds its
// test binary once, the rounds are -pairs' count, the sides alternate
// going first, the ledger keeps every row of every run, B wins every round
// by the ratios the canned values imply, and B/op and allocs/op are each
// side's values; a row only B has is reported with B's values and no
// ratio.
func TestRunLayers(t *testing.T) {
	a, b, out := stubCheckout(t, "100", 0), stubCheckout(t, "80", 0), t.TempDir()
	log := stubLayers(t, a, b)
	if err := os.WriteFile(filepath.Join(b, "extra"), nil, 0o644); err != nil {
		t.Fatal(err)
	}
	var stdout, stderr bytes.Buffer
	args := []string{"-a", a, "-b", b, "-layers", "./internal/distributed", "-pairs", "4", "-pr", "5", "-dir", out}
	if code := run(args, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d\nstderr:\n%s", code, &stderr)
	}
	builds, err := os.ReadFile(log)
	if err != nil {
		t.Fatal(err)
	}
	if lines := strings.Split(strings.TrimSpace(string(builds)), "\n"); len(lines) != 2 ||
		!strings.HasPrefix(lines[0], a+" test -c -o ") || !strings.HasPrefix(lines[1], b+" test -c -o ") {
		t.Errorf("builds %q, want one go test -c per side", lines)
	}
	js, err := os.ReadFile(filepath.Join(out, "BENCH_5.json"))
	if err != nil {
		t.Fatal(err)
	}
	var l ledger
	if err := json.Unmarshal(js, &l); err != nil {
		t.Fatal(err)
	}
	if len(l.Runs) != 8 || l.Rounds != 4 || l.GOMAXPROCS != "2" || len(l.LayerRows) != 12 || len(l.LayerSummary) != 2 {
		t.Fatalf("ledger %+v", l)
	}
	for _, r := range l.LayerRows {
		first := r.Round%2 == 0 == (r.Side == "A")
		if (r.Order == 1) != first || r.Package != "./internal/distributed" {
			t.Errorf("row %+v: want order 1 = %v", r, first)
		}
	}
	s := l.LayerSummary[0]
	// Rounds alternate (110 vs 80) and (100 vs 88): ratios 0.7273 and 0.88.
	if s.Name != "BenchmarkHotpathTrainStep/train_dense" || s.Won != 4 || s.Rounds != 4 ||
		!near(s.MedianRatio, (80.0/110+0.88)/2) || s.BytesA != 100000 || s.BytesB != 80000 ||
		s.AllocsA != 100 || s.AllocsB != 80 || s.BytesVaryA || s.AllocsVaryB {
		t.Errorf("layer summary %+v", s)
	}
	if extra := l.LayerSummary[1]; extra.Name != "BenchmarkHotpathNew" || extra.Rounds != 0 || extra.RoundsA != 0 || extra.RoundsB != 4 {
		t.Errorf("one-sided row %+v", extra)
	}
	if !strings.Contains(stdout.String(), "BenchmarkHotpathTrainStep/train_dense") || !strings.Contains(stdout.String(), "4/4") {
		t.Errorf("report misses the layer row:\n%s", &stdout)
	}
}

// TestRunLayersFailures: a package named twice exits 2 before anything
// runs, and a side whose test binary fails to build exits 1 naming the
// package and the side.
func TestRunLayersFailures(t *testing.T) {
	good, broken := stubCheckout(t, "100", 0), stubCheckout(t, "100", 0)
	stubLayers(t, good, broken)
	if err := os.WriteFile(filepath.Join(broken, "go_exit"), []byte("1"), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		args     []string
		code     int
		inStderr string
	}{
		{[]string{"-a", good, "-layers", "./x,./x"}, 2, "must name each package once"},
		{[]string{"-a", good, "-b", broken, "-layers", "./internal/distributed"}, 1, "building ./internal/distributed on side B"},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(tc.args, &stdout, &stderr); code != tc.code || !strings.Contains(stderr.String(), tc.inStderr) {
			t.Errorf("%v: exit %d, stderr %q; want exit %d mentioning %q", tc.args, code, &stderr, tc.code, tc.inStderr)
		}
	}
}
