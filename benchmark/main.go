// Command benchmark is the repo's performance ruler: five fixed-work
// workloads over the trainer, the server and the fleet simulator, each run
// in one process, checked for correct outputs, and reported as the metrics
// BENCHMARK.json lists. See README.md in this directory.
//
//	go run ./benchmark -workload train_dense -seed 1            # end-to-end metrics
//	go run ./benchmark -workload train_dense -seed 1 -trace 1   # per-layer metrics + Chrome trace
//	go run ./benchmark -aa 5                                    # A/A check of the benchmark itself
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"time"
)

// runConfig is one invocation's arguments, as the workloads see them.
type runConfig struct {
	seed    uint64
	scale   float64 // seconds / nominalSeconds: multiplies the measured-phase counts
	trace   bool
	rounds  int // set-up rounds; setup_s is their median
	sizes   *sizes
	rec     *recorder // nil when tracing is off
	started time.Time // process start, for the first set-up round
}

// report is what one workload run produced.
type report struct {
	attempted int
	failed    int
	problems  []string           // one line per failed operation or output check
	values    map[string]float64 // every metric computed, by catalogue name
}

func newReport() *report { return &report{values: map[string]float64{}} }

func (r *report) set(name string, v float64) { r.values[name] = v }

// op counts n attempted operations.
func (r *report) op(n int) { r.attempted += n }

// fail counts one failed operation or output check.
func (r *report) fail(format string, args ...any) { r.failN(1, format, args...) }

// failN counts n failures described by one line; n <= 0 counts nothing.
func (r *report) failN(n int, format string, args ...any) {
	if n <= 0 {
		return
	}
	r.failed += n
	if len(r.problems) < 20 {
		r.problems = append(r.problems, fmt.Sprintf(format, args...))
	}
}

// setUp runs the workload's set-up rc.rounds times and returns the median
// round in seconds (setup_s). build makes one rig; drop releases the
// previous one before the next is built. Garbage is collected between
// rounds so that peak_rss_mb is one rig's footprint, not the rounds' sum.
// The first round counts from process start.
func (rc runConfig) setUp(build func() error, drop func()) (float64, error) {
	var secs []float64
	for round := 0; round < rc.rounds; round++ {
		t0 := rc.started
		if round > 0 {
			drop()
			runtime.GC()
			t0 = time.Now()
		}
		if err := build(); err != nil {
			return 0, err
		}
		secs = append(secs, time.Since(t0).Seconds())
	}
	return median(secs), nil
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: train_dense, train_embed, serve_hot, serve_cold, sim_fleet")
	seed := fs.Uint64("seed", 1, "seed of the generated inputs (data, traces, key streams); model-init seeds are constants")
	seconds := fs.Float64("seconds", nominalSeconds, "nominal measured-phase length; scales the fixed operation counts linearly from the tuned value")
	trace := fs.Int("trace", 0, "1 = traced run: per-layer metrics and a Chrome trace; 0 = end-to-end metrics")
	full := fs.Bool("full", false, "put every metric computed in the result line, not only the -trace mode's list")
	aa := fs.Int("aa", 0, "A/A check: two interleaved sets of n runs per workload of this binary; exits non-zero on a gap over its bound")
	showManifest := fs.Bool("manifest", false, "print BENCHMARK.json as the catalogue defines it and exit")
	expected := fs.Int("expected", 0, "print expected.json measured afresh on seeds 0..n-1: the committed values the exact metrics are held to")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *showManifest {
		b, err := manifest()
		if err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			return 1
		}
		_, _ = stdout.Write(b) // a failed write to stdout has nowhere to be reported
		return 0
	}
	if *aa > 0 {
		return runAA(*aa, *name, *seconds, stdout, stderr)
	}
	if *expected > 0 {
		return runExpected(*expected, stdout, stderr)
	}
	w := findWorkload(*name)
	if w == nil {
		fmt.Fprintf(stderr, "benchmark: unknown workload %q\n", *name)
		return 2
	}
	if *seconds <= 0 || *trace < 0 || *trace > 1 {
		fmt.Fprintln(stderr, "benchmark: -seconds must be positive and -trace 0 or 1")
		return 2
	}
	procs := min(runtime.NumCPU(), 2)
	runtime.GOMAXPROCS(procs)

	rc := runConfig{
		seed:    *seed,
		scale:   *seconds / nominalSeconds,
		trace:   *trace == 1,
		rounds:  setupRounds,
		sizes:   nominalSizes(),
		started: processStart,
	}
	if rc.trace {
		rc.rounds = 1 // a traced run reports no setup_s; spend the time on the layers
		rc.rec = newRecorder()
	}
	gc0 := readMem().gcs
	rep, err := w.run(rc)
	if err != nil {
		fmt.Fprintf(stderr, "benchmark: %s: %v\n", w.name, err)
		return 1
	}
	guarded := "not at the nominal -seconds"
	if *seconds == nominalSeconds {
		table, err := loadExpected()
		if err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			return 1
		}
		guarded = "none committed for this workload and seed"
		if checkExpected(rep, table, w.name, *seed) {
			guarded = "compared"
		}
	}
	rep.set("peak_rss_mb", peakRSSMB())
	rep.set("bench.gc_cycles", float64(readMem().gcs-gc0))
	rep.set("bench.run_wall_s", time.Since(processStart).Seconds())
	rep.set("bench.error_share", float64(rep.failed)/float64(max(rep.attempted, 1)))

	if rc.trace {
		path := ".bench_build/traces/" + w.name + ".trace.json"
		if err := rc.rec.writeChrome(path, w.name); err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			return 1
		}
		fmt.Fprintf(stdout, "# chrome trace: %s (%d spans)\n", path, len(rc.rec.spans))
	}

	fmt.Fprintf(stdout, "# workload=%s seed=%d seconds=%g trace=%d gomaxprocs=%d expected=%q\n", w.name, *seed, *seconds, *trace, procs, guarded)
	printMetrics(stdout, rep)
	for _, p := range rep.problems {
		fmt.Fprintln(stdout, "# FAILED:", p)
	}
	emit := endToEnd
	if rc.trace {
		emit = perLayer
	}
	if *full {
		emit = allMetrics()
	}
	line, err := resultLine(rep, emit)
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	fmt.Fprintln(stdout, line)
	if rep.failed > 0 {
		return 1
	}
	return 0
}

// printMetrics lists every metric the run computed, by name, with its unit.
// (A name outside the catalogue would not print; TestWorkloadsAtSmallScale
// fails on one.)
func printMetrics(w io.Writer, rep *report) {
	for _, d := range allMetrics() {
		if v, ok := rep.values[d.name]; ok {
			fmt.Fprintf(w, "%-44s %s %s\n", d.name, formatValue(v), d.unit)
		}
	}
}

// formatValue prints a value with all its digits.
func formatValue(v float64) string {
	b, err := json.Marshal(v)
	if err != nil { // NaN or Inf: not valid JSON; resultLine rejects it
		return fmt.Sprint(v)
	}
	return string(b)
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultLine renders the run's last line: one JSON object with exactly the
// keys correct, attempted, failed and metrics, the metrics being every
// entry of emit (a per-layer metric the workload does not exercise is 0).
func resultLine(rep *report, emit []metricDef) (string, error) {
	metrics := make(map[string]metricValue, len(emit))
	for _, d := range emit {
		v := rep.values[d.name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return "", fmt.Errorf("metric %s is %v", d.name, v)
		}
		metrics[d.name] = metricValue{Value: v, Unit: d.unit}
	}
	out := struct {
		Correct   bool                   `json:"correct"`
		Attempted int                    `json:"attempted"`
		Failed    int                    `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{rep.failed == 0, max(rep.attempted, 1), rep.failed, metrics}
	b, err := json.Marshal(out)
	if err != nil {
		return "", err
	}
	return string(b), nil
}
