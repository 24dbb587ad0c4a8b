// Command dmt-ab compares two checkouts of this repository on the repo's
// benchmark: interleaved pairs of runs of benchmark/run.sh, one side's
// build against the other's, and a ledger of every run.
//
// Usage:
//
//	dmt-ab -a ../parent -b . -workloads train_dense,sim_fleet -seeds 1,2,3 -pairs 3,sim_fleet=10 -pr 56
//	dmt-ab -a . -workloads serve_cold -pairs 6     # A/A: one checkout against itself
//
// -pairs takes a count for every workload (default 10) and workload=count
// entries for single ones. -workloads names each workload once.
//
// Each side builds through its own `bash benchmark/run.sh --manifest`, which
// compiles the benchmark inside that checkout and exits. Then, per workload,
// pair i runs seed seeds[i mod len(seeds)] on both sides for 10 seconds at
// trace level 0, the benchmark's own settings, A first on even pairs and B
// first on odd ones, so a slow spell or a warm cache favours neither side.
// Each run's result is its last output line, the benchmark's JSON object.
// A run that exits non-zero (run.sh does when its sequential check or a
// guard fails) or prints "correct":false is a failed run: its metrics still
// enter the summary, but the report counts the failed runs per side and
// dmt-ab exits 1.
//
// Per workload and metric it reports B/A as
//   - the median of the pairs' ratios,
//   - the pairs B won, in the metric's direction from the A side's
//     BENCHMARK.json ("-" for a metric it does not list),
//   - the ratio of the two sides' fastest deciles (the best tenth of each
//     side's runs, in that direction), and
//   - the first-run bias: the median over pairs of the first run's value
//     over the second's, whichever side went first. An A/A comparison
//     shows the order effect alone.
//
// With -pr n it writes BENCH_<n>.json into -dir: both checkouts' directory
// names and git HEADs (marked -dirty with uncommitted changes), GOMAXPROCS
// as the benchmark echoed it, the seeds, each pair's order and every run's
// last line, plus the summary above and the failed-run counts.
package main

import (
	"bytes"
	"cmp"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"maps"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"slices"
	"strconv"
	"strings"

	"dmt/internal/metrics"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// Every run lasts runSeconds at trace level runTrace, as the benchmark's
// own runs do.
const (
	runSeconds = 10
	runTrace   = 0
)

// side is one checkout under comparison: its directory's name and its git
// HEAD.
type side struct {
	Dir string `json:"dir"`
	SHA string `json:"sha"`
}

// runRecord is one benchmark run: its place in the schedule and its
// result line.
type runRecord struct {
	Workload string `json:"workload"`
	Pair     int    `json:"pair"`
	Seed     uint64 `json:"seed"`
	Side     string `json:"side"`  // "A" or "B"
	Order    int    `json:"order"` // 1 = ran first in its pair
	Exit     int    `json:"exit"`
	Line     string `json:"line"`
}

// result is the benchmark's last output line.
type result struct {
	Correct bool `json:"correct"`
	Metrics map[string]struct {
		Value float64 `json:"value"`
	} `json:"metrics"`
}

// failedRuns counts, per side, one workload's runs that exited non-zero or
// printed "correct":false, out of Runs each.
type failedRuns struct {
	Workload string `json:"workload"`
	A        int    `json:"a"`
	B        int    `json:"b"`
	Runs     int    `json:"runs"`
}

// summary is one workload's metric compared across the pairs.
type summary struct {
	Workload    string  `json:"workload"`
	Metric      string  `json:"metric"`
	Better      string  `json:"better,omitempty"`
	MedianRatio float64 `json:"median_ratio"`
	Won         int     `json:"won"` // -1 when the direction is unknown
	Pairs       int     `json:"pairs"`
	DecileRatio float64 `json:"fastest_decile_ratio"`
	FirstBias   float64 `json:"first_run_bias"`
}

// ledger is BENCH_<n>.json.
type ledger struct {
	PR         int          `json:"pr"`
	A          side         `json:"a"`
	B          side         `json:"b"`
	AA         bool         `json:"aa"`
	GOMAXPROCS string       `json:"gomaxprocs"`
	Seconds    float64      `json:"seconds"`
	Trace      int          `json:"trace"`
	Seeds      []uint64     `json:"seeds"`
	Workloads  []string     `json:"workloads"`
	Summary    []summary    `json:"summary"`
	Failed     []failedRuns `json:"failed"`
	Runs       []runRecord  `json:"runs"`
}

// run compares the checkouts the flags in args name, prints the summary to
// stdout and returns the exit code: 2 for bad flags, 1 when a side fails to
// build, a run prints no result line or fails, or the ledger cannot be
// written.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("dmt-ab", flag.ContinueOnError)
	fs.SetOutput(stderr)
	dirA := fs.String("a", "", "checkout A, the baseline (required)")
	dirB := fs.String("b", "", "checkout B, the change (default: A, an A/A comparison)")
	workloads := fs.String("workloads", "train_dense", "comma-separated workloads")
	seedList := fs.String("seeds", "1", "comma-separated seeds, taken in turn by the pairs")
	pairList := fs.String("pairs", "10", "interleaved pairs per workload: a count, workload=count entries, or both, comma-separated")
	pr := fs.Int("pr", 0, "write BENCH_<pr>.json (0: write no ledger)")
	outDir := fs.String("dir", ".", "directory BENCH_<pr>.json is written to")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	fail := func(code int, format string, a ...any) int {
		fmt.Fprintf(stderr, "dmt-ab: "+format+"\n", a...)
		return code
	}
	if fs.NArg() > 0 {
		return fail(2, "unexpected arguments %q", fs.Args())
	}
	if *dirA == "" {
		return fail(2, "-a is required")
	}
	if *dirB == "" {
		*dirB = *dirA
	}
	var seeds []uint64
	for _, s := range strings.Split(*seedList, ",") {
		v, err := strconv.ParseUint(strings.TrimSpace(s), 10, 64)
		if err != nil {
			return fail(2, "bad -seeds %q: %v", *seedList, err)
		}
		seeds = append(seeds, v)
	}
	ws := strings.Split(*workloads, ",")
	for i, w := range ws {
		if w == "" || slices.Contains(ws[:i], w) {
			return fail(2, "-workloads %q must name each workload once", *workloads)
		}
	}
	pairs, err := parsePairs(*pairList, ws)
	if err != nil {
		return fail(2, "bad -pairs %q: %v", *pairList, err)
	}

	l := ledger{PR: *pr, Seconds: runSeconds, Trace: runTrace, Seeds: seeds, Workloads: ws}
	dirs := map[string]string{"A": *dirA, "B": *dirB}
	for _, name := range []string{"A", "B"} {
		abs, err := filepath.Abs(dirs[name])
		if err != nil {
			return fail(1, "%v", err)
		}
		dirs[name] = abs
	}
	l.AA = dirs["A"] == dirs["B"]
	l.A = side{Dir: filepath.Base(dirs["A"]), SHA: gitHead(dirs["A"])}
	l.B = side{Dir: filepath.Base(dirs["B"]), SHA: gitHead(dirs["B"])}
	for _, name := range []string{"A", "B"} {
		if name == "B" && l.AA {
			break
		}
		if out, err := runSH(dirs[name], "--manifest"); err != nil {
			return fail(1, "building side %s (%s): %v\n%s", name, dirs[name], err, out)
		}
	}
	better := directions(dirs["A"])

	gomaxprocs := regexp.MustCompile(`gomaxprocs=(\d+)`)
	anyFailed := false
	for _, w := range ws {
		failed := failedRuns{Workload: w, Runs: pairs[w]}
		for i := 0; i < pairs[w]; i++ {
			seed := seeds[i%len(seeds)]
			order := []string{"A", "B"}
			if i%2 == 1 {
				order = []string{"B", "A"}
			}
			for k, name := range order {
				out, err := runSH(dirs[name], "--workload", w, "--seed", strconv.FormatUint(seed, 10),
					"--seconds", strconv.Itoa(runSeconds), "--trace", strconv.Itoa(runTrace))
				rec := runRecord{Workload: w, Pair: i, Seed: seed, Side: name, Order: k + 1, Line: lastLine(out)}
				var exitErr *exec.ExitError
				switch {
				case errors.As(err, &exitErr):
					rec.Exit = exitErr.ExitCode()
				case err != nil:
					return fail(1, "%s pair %d side %s: %v", w, i, name, err)
				}
				if m := gomaxprocs.FindSubmatch(out); m != nil && l.GOMAXPROCS == "" {
					l.GOMAXPROCS = string(m[1])
				}
				r, err := parse(rec.Line)
				if err != nil {
					return fail(1, "%s pair %d side %s printed no result line (exit %d): %v", w, i, name, rec.Exit, err)
				}
				if rec.Exit != 0 || !r.Correct {
					if name == "A" {
						failed.A++
					} else {
						failed.B++
					}
				}
				l.Runs = append(l.Runs, rec)
			}
		}
		l.Summary = append(l.Summary, summarize(w, l.Runs, better)...)
		l.Failed = append(l.Failed, failed)
		anyFailed = anyFailed || failed.A+failed.B > 0
	}

	report(stdout, l)
	if *pr != 0 {
		js, err := json.MarshalIndent(l, "", " ")
		if err != nil {
			return fail(1, "%v", err)
		}
		path := filepath.Join(*outDir, fmt.Sprintf("BENCH_%d.json", *pr))
		if err := os.WriteFile(path, append(js, '\n'), 0o644); err != nil {
			return fail(1, "%v", err)
		}
		fmt.Fprintf(stdout, "wrote %s\n", path)
	}
	if anyFailed {
		return fail(1, "some runs failed; see the failed-run counts")
	}
	return 0
}

// parsePairs reads -pairs into each workload of ws's pair count: a bare
// count is every workload's (10 without one), and a workload=count entry
// one workload's. Each count is positive and given once.
func parsePairs(list string, ws []string) (map[string]int, error) {
	pairs := map[string]int{}
	for _, item := range strings.Split(list, ",") {
		name, count, named := strings.Cut(item, "=")
		if !named {
			name, count = "", name
		}
		n, err := strconv.Atoi(count)
		switch {
		case err != nil || n < 1:
			return nil, fmt.Errorf("%q is not a positive pair count", item)
		case named && !slices.Contains(ws, name):
			return nil, fmt.Errorf("%s is not in -workloads", name)
		case pairs[name] != 0:
			return nil, fmt.Errorf("%s has two counts", cmp.Or(name, "every workload"))
		}
		pairs[name] = n
	}
	for _, w := range ws {
		pairs[w] = cmp.Or(pairs[w], pairs[""], 10)
	}
	return pairs, nil
}

// runSH runs the checkout's benchmark/run.sh with args, from the checkout's
// root, and returns its standard output and error together.
func runSH(dir string, args ...string) ([]byte, error) {
	cmd := exec.Command("bash", append([]string{"benchmark/run.sh"}, args...)...)
	cmd.Dir = dir
	return cmd.CombinedOutput()
}

// gitHead is dir's git HEAD, with -dirty when the tree has uncommitted
// changes, or "" outside a git checkout.
func gitHead(dir string) string {
	out, err := exec.Command("git", "-C", dir, "rev-parse", "HEAD").Output()
	if err != nil {
		return ""
	}
	sha := strings.TrimSpace(string(out))
	if st, err := exec.Command("git", "-C", dir, "status", "--porcelain", "--untracked-files=no").Output(); err == nil && len(bytes.TrimSpace(st)) > 0 {
		sha += "-dirty"
	}
	return sha
}

// directions maps each metric BENCHMARK.json in dir lists to "higher" or
// "lower", the way it gets better; an unreadable file yields none.
func directions(dir string) map[string]string {
	var m struct {
		EndToEnd []struct{ Name, Better string } `json:"end_to_end"`
		PerLayer []struct{ Name, Better string } `json:"per_layer"`
	}
	out := map[string]string{}
	js, err := os.ReadFile(filepath.Join(dir, "BENCHMARK.json"))
	if err != nil || json.Unmarshal(js, &m) != nil {
		return out
	}
	for _, d := range append(m.EndToEnd, m.PerLayer...) {
		out[d.Name] = d.Better
	}
	return out
}

// lastLine is the last non-blank line of out.
func lastLine(out []byte) string {
	s := strings.TrimSpace(string(out))
	return strings.TrimSpace(s[strings.LastIndexByte(s, '\n')+1:])
}

func parse(line string) (result, error) {
	var r result
	if err := json.Unmarshal([]byte(line), &r); err != nil {
		return r, err
	}
	if r.Metrics == nil {
		return r, errors.New("no metrics")
	}
	return r, nil
}

// summarize compares side B with side A on workload w, metric by metric,
// over the pairs in runs, where the workload's runs 2i and 2i+1 are pair
// i's, in the order they ran. A metric enters only if every run of the
// workload reports it.
func summarize(w string, runs []runRecord, better map[string]string) []summary {
	var own []runRecord
	values := map[string][]float64{} // by metric, one per run that reports it
	for _, rec := range runs {
		if rec.Workload == w {
			own = append(own, rec)
			r, _ := parse(rec.Line)
			for name, m := range r.Metrics {
				values[name] = append(values[name], m.Value)
			}
		}
	}
	var out []summary
	for _, name := range slices.Sorted(maps.Keys(values)) {
		v := values[name]
		if len(v) != len(own) {
			continue
		}
		s := summary{Workload: w, Metric: name, Better: better[name], Won: -1, Pairs: len(v) / 2}
		var ratios, bias, as, bs []float64
		won := 0
		for i := 0; i+1 < len(v); i += 2 {
			a, b := v[i], v[i+1]
			if own[i].Side == "B" {
				a, b = b, a
			}
			ratios, bias = append(ratios, b/a), append(bias, v[i]/v[i+1])
			as, bs = append(as, a), append(bs, b)
			if (s.Better == "higher" && b > a) || (s.Better == "lower" && b < a) {
				won++
			}
		}
		if s.Better == "higher" || s.Better == "lower" {
			s.Won = won
		}
		s.MedianRatio, s.FirstBias = metrics.Median(ratios), metrics.Median(bias)
		s.DecileRatio = fastestDecile(bs, s.Better) / fastestDecile(as, s.Better)
		out = append(out, s)
	}
	return out
}

// fastestDecile is the mean of the best tenth of xs (at least one value) in
// direction better: the largest for "higher", the smallest otherwise.
func fastestDecile(xs []float64, better string) float64 {
	s := slices.Clone(xs)
	slices.Sort(s)
	if better == "higher" {
		slices.Reverse(s)
	}
	k := max(1, len(s)/10)
	sum := 0.0
	for _, v := range s[:k] {
		sum += v
	}
	return sum / float64(k)
}

// report prints the summary, one line per workload and metric.
func report(w io.Writer, l ledger) {
	mode := "A/B"
	if l.AA {
		mode = "A/A"
	}
	fmt.Fprintf(w, "dmt-ab %s: A %s (%s), B %s (%s), GOMAXPROCS %s, seeds %v\n",
		mode, l.A.Dir, orNone(l.A.SHA), l.B.Dir, orNone(l.B.SHA), orNone(l.GOMAXPROCS), l.Seeds)
	fmt.Fprintf(w, "%-12s %-40s %8s %8s %8s %9s\n", "workload", "metric (B/A)", "median", "won", "decile", "1st-bias")
	for _, s := range l.Summary {
		won := "-"
		if s.Won >= 0 {
			won = fmt.Sprintf("%d/%d", s.Won, s.Pairs)
		}
		fmt.Fprintf(w, "%-12s %-40s %8.4f %8s %8.4f %9.4f\n", s.Workload, s.Metric, s.MedianRatio, won, s.DecileRatio, s.FirstBias)
	}
	for _, f := range l.Failed {
		fmt.Fprintf(w, "%-12s failed runs (non-zero exit or correct:false): A %d/%d, B %d/%d\n", f.Workload, f.A, f.Runs, f.B, f.Runs)
	}
}

func orNone(s string) string {
	if s == "" {
		return "none"
	}
	return s
}
