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
// Every run passes --full, so its result, its last output line (the
// benchmark's JSON object), holds every metric the run computed, the
// virtual-clock and byte-count figures included.
// A run that exits non-zero (run.sh does when its sequential check or a
// guard fails) or prints "correct":false is a failed run: its metrics still
// enter the summary, but the report counts the failed runs per side and
// dmt-ab exits 1.
//
// A metric that reads 0 on every run of a workload is one the run did not
// compute (an untraced run prints the traced-only metrics as 0), and is
// left out. A metric is exact on a workload when every run of one side at
// one seed reports the same bits, and some side ran some seed more than
// once (a metric the benchmark's expected.json guards is exact by
// contract, and counts as exact on one run). Per workload and seed it
// reports each exact metric that is not one of BENCHMARK.json's
// end-to-end metrics with A's value, B's, the relative change and "equal"
// when the bits match; the direction comes from BENCHMARK.json. A guarded
// figure that differs between two runs of one side at one seed is a
// determinism failure: the report lists it and dmt-ab exits 1.
//
// Per workload and every other metric (the wall-clock ones) that reads no
// 0, so that every ratio is defined, it reports B/A as
//   - the median of the pairs' ratios,
//   - the pairs B won, in the metric's direction from the A side's
//     BENCHMARK.json ("-" for a metric it does not list),
//   - the ratio of the two sides' fastest deciles (the best tenth of each
//     side's runs, in that direction), and
//   - the first-run bias: the median over pairs of the first run's value
//     over the second's, whichever side went first. An A/A comparison
//     shows the order effect alone.
//
// With -layers it also compares the checkouts layer by layer, on the
// packages' hot-path benchmarks (every ^BenchmarkHotpath row), beside the
// workloads:
//
//	dmt-ab -a ../parent -b . -workloads train_dense,train_embed -layers ./internal/distributed,./internal/tensor -pr 57
//
// Each side builds every listed package's test binary once (go test -c,
// its build cache under the checkout's .bench_build/, as run.sh keeps
// its), then, after the workloads, round i runs every binary of both
// sides, -test.benchmem at one count, A first on even rounds and B first
// on odd ones. There are as many rounds as -pairs' bare count gives every
// workload (10 without one). Per benchmark row it reports the median over
// rounds of B's ns/op over A's and the rounds B was faster, and each
// side's median B/op and allocs/op as values. A row that only one side has
// is reported with that side's values.
//
// With -pr n it writes BENCH_<n>.json into -dir: both checkouts' directory
// names and git HEADs (marked -dirty with uncommitted changes), GOMAXPROCS
// as the benchmark echoed it, the seeds, each pair's order and every run's
// last line, plus the summary above, the exact figures, the determinism
// failures and the failed-run counts; with -layers, also every layer row of
// every run and the layer summary.
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
	"math"
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
// own runs do. The layer rounds run the benchmarks layerBench matches.
const (
	runSeconds = 10
	runTrace   = 0
	layerBench = "^BenchmarkHotpath"
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

// exactFigure is one exact metric of one workload at one seed: each side's
// value, B's relative change from A (absent when A is 0 and B is not) and
// whether the bits match.
type exactFigure struct {
	Workload string   `json:"workload"`
	Metric   string   `json:"metric"`
	Seed     uint64   `json:"seed"`
	Better   string   `json:"better,omitempty"`
	A        float64  `json:"a"`
	B        float64  `json:"b"`
	Change   *float64 `json:"change,omitempty"`
	Equal    bool     `json:"equal"`
}

// nondeterministic is a guarded figure whose runs of one side at one seed
// disagree.
type nondeterministic struct {
	Workload string    `json:"workload"`
	Metric   string    `json:"metric"`
	Side     string    `json:"side"`
	Seed     uint64    `json:"seed"`
	Values   []float64 `json:"values"`
}

// layerRow is one benchmark row of one run of a package's test binary.
type layerRow struct {
	Package     string  `json:"package"`
	Name        string  `json:"name"`
	Round       int     `json:"round"`
	Side        string  `json:"side"`
	Order       int     `json:"order"` // 1 = the side ran first in its round
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  float64 `json:"bytes_per_op"`
	AllocsPerOp float64 `json:"allocs_per_op"`
}

// layerSummary is one benchmark row compared across the rounds: B's ns/op
// over A's, and each side's B/op and allocs/op as values. A side without
// the row has zero rounds of it and no ratio.
type layerSummary struct {
	Package     string  `json:"package"`
	Name        string  `json:"name"`
	MedianRatio float64 `json:"median_ns_ratio,omitempty"`
	Won         int     `json:"won"` // rounds B ran faster
	Rounds      int     `json:"rounds"`
	NsA         float64 `json:"ns_per_op_a,omitempty"`
	NsB         float64 `json:"ns_per_op_b,omitempty"`
	BytesA      float64 `json:"bytes_per_op_a"`
	BytesB      float64 `json:"bytes_per_op_b"`
	AllocsA     float64 `json:"allocs_per_op_a"`
	AllocsB     float64 `json:"allocs_per_op_b"`
	RoundsA     int     `json:"rounds_a"`
	RoundsB     int     `json:"rounds_b"`
	BytesVaryA  bool    `json:"bytes_vary_a,omitempty"`
	BytesVaryB  bool    `json:"bytes_vary_b,omitempty"`
	AllocsVaryA bool    `json:"allocs_vary_a,omitempty"`
	AllocsVaryB bool    `json:"allocs_vary_b,omitempty"`
}

// ledger is BENCH_<n>.json.
type ledger struct {
	PR           int                `json:"pr"`
	A            side               `json:"a"`
	B            side               `json:"b"`
	AA           bool               `json:"aa"`
	GOMAXPROCS   string             `json:"gomaxprocs"`
	Seconds      float64            `json:"seconds"`
	Trace        int                `json:"trace"`
	Seeds        []uint64           `json:"seeds"`
	Workloads    []string           `json:"workloads"`
	Summary      []summary          `json:"summary"`
	Exact        []exactFigure      `json:"exact"`
	Unstable     []nondeterministic `json:"nondeterministic,omitempty"`
	Failed       []failedRuns       `json:"failed"`
	Runs         []runRecord        `json:"runs"`
	Layers       []string           `json:"layers,omitempty"`
	Rounds       int                `json:"rounds,omitempty"`
	LayerSummary []layerSummary     `json:"layer_summary,omitempty"`
	LayerRows    []layerRow         `json:"layer_rows,omitempty"`
}

// run compares the checkouts the flags in args name, prints the summary to
// stdout and returns the exit code: 2 for bad flags, 1 when a side fails to
// build, a run prints no result line or fails, a guarded figure is not
// deterministic, or the ledger cannot be written.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("dmt-ab", flag.ContinueOnError)
	fs.SetOutput(stderr)
	dirA := fs.String("a", "", "checkout A, the baseline (required)")
	dirB := fs.String("b", "", "checkout B, the change (default: A, an A/A comparison)")
	workloads := fs.String("workloads", "train_dense", "comma-separated workloads")
	seedList := fs.String("seeds", "1", "comma-separated seeds, taken in turn by the pairs")
	pairList := fs.String("pairs", "10", "interleaved pairs per workload: a count, workload=count entries, or both, comma-separated (the count is also the layer rounds')")
	pr := fs.Int("pr", 0, "write BENCH_<pr>.json (0: write no ledger)")
	outDir := fs.String("dir", ".", "directory BENCH_<pr>.json is written to")
	layerList := fs.String("layers", "", "comma-separated packages whose hot-path benchmarks run in interleaved rounds ('' runs none)")
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
	var layers []string
	if *layerList != "" {
		layers = strings.Split(*layerList, ",")
	}
	for i, p := range layers {
		if p == "" || slices.Contains(layers[:i], p) {
			return fail(2, "-layers %q must name each package once", *layerList)
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
		for _, p := range layers {
			if out, err := buildLayer(dirs[name], p); err != nil {
				return fail(1, "building %s on side %s (%s): %v\n%s", p, name, dirs[name], err, out)
			}
		}
	}
	better, endToEnd := directions(dirs["A"])
	guarded := guardedFigures(dirs["A"])

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
					"--seconds", strconv.Itoa(runSeconds), "--trace", strconv.Itoa(runTrace), "--full")
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
		pairMetrics, exact, unstable := exactFigures(w, l.Runs, better, endToEnd, guarded[w])
		l.Summary = append(l.Summary, summarize(w, l.Runs, better, pairMetrics)...)
		l.Exact = append(l.Exact, exact...)
		l.Unstable = append(l.Unstable, unstable...)
		l.Failed = append(l.Failed, failed)
		anyFailed = anyFailed || failed.A+failed.B > 0
	}

	if len(layers) > 0 {
		l.Layers, l.Rounds = layers, cmp.Or(pairs[""], 10)
		for i := 0; i < l.Rounds; i++ {
			order := []string{"A", "B"}
			if i%2 == 1 {
				order = []string{"B", "A"}
			}
			for k, name := range order {
				for _, p := range layers {
					out, err := runLayer(dirs[name], p)
					if err != nil {
						return fail(1, "%s round %d side %s: %v\n%s", p, i, name, err, out)
					}
					rows, procs := parseBench(out)
					for _, r := range rows {
						r.Package, r.Round, r.Side, r.Order = p, i, name, k+1
						l.LayerRows = append(l.LayerRows, r)
					}
					l.GOMAXPROCS = cmp.Or(l.GOMAXPROCS, procs)
				}
			}
		}
		l.LayerSummary = summarizeLayers(l.LayerRows)
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
	if len(l.Unstable) > 0 {
		return fail(1, "determinism failure: a guarded figure differs between runs of one side at one seed")
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

// layerBinary is where pkg's test binary is built inside checkout dir.
func layerBinary(dir, pkg string) string {
	name := strings.Trim(strings.ReplaceAll(filepath.ToSlash(pkg), "/", "_"), "._")
	return filepath.Join(dir, ".bench_build", "layers", name+".test")
}

// buildLayer compiles pkg's test binary in checkout dir, with the go
// command's caches under dir/.bench_build as run.sh keeps them.
func buildLayer(dir, pkg string) ([]byte, error) {
	build := filepath.Join(dir, ".bench_build")
	for _, d := range []string{filepath.Join(build, "config", "go", "telemetry"), filepath.Dir(layerBinary(dir, pkg))} {
		if err := os.MkdirAll(d, 0o755); err != nil {
			return nil, err
		}
	}
	if err := os.WriteFile(filepath.Join(build, "config", "go", "telemetry", "mode"), []byte("off\n"), 0o644); err != nil {
		return nil, err
	}
	cmd := exec.Command("go", "test", "-c", "-o", layerBinary(dir, pkg), pkg)
	cmd.Dir = dir
	cmd.Env = append(os.Environ(), "GOCACHE="+filepath.Join(build, "go-cache"), "GOPATH="+filepath.Join(build, "gopath"),
		"XDG_CONFIG_HOME="+filepath.Join(build, "config"), "GOTOOLCHAIN=local")
	return cmd.CombinedOutput()
}

// runLayer runs pkg's test binary from its package directory, as go test
// would: no tests, the benchmarks layerBench matches, -benchmem, one count.
func runLayer(dir, pkg string) ([]byte, error) {
	cmd := exec.Command(layerBinary(dir, pkg), "-test.run", "^$", "-test.bench", layerBench, "-test.benchmem", "-test.count", "1")
	cmd.Dir = filepath.Join(dir, pkg)
	return cmd.CombinedOutput()
}

// benchLine is a -benchmem result line: name, GOMAXPROCS suffix,
// iterations, then value-unit pairs.
var benchLine = regexp.MustCompile(`^(Benchmark\S+?)(?:-(\d+))?\s+\d+\s+(.*)$`)

// parseBench reads the rows of a benchmark binary's output, each row's name
// (without the -GOMAXPROCS suffix) and its ns/op, B/op and allocs/op, and
// the GOMAXPROCS the suffix gives ("" without one).
func parseBench(out []byte) (rows []layerRow, procs string) {
	for _, line := range strings.Split(string(out), "\n") {
		m := benchLine.FindStringSubmatch(strings.TrimSpace(line))
		if m == nil {
			continue
		}
		procs = cmp.Or(procs, m[2])
		r := layerRow{Name: m[1]}
		f := strings.Fields(m[3])
		for i := 0; i+1 < len(f); i += 2 {
			v, err := strconv.ParseFloat(f[i], 64)
			if err != nil {
				continue
			}
			switch f[i+1] {
			case "ns/op":
				r.NsPerOp = v
			case "B/op":
				r.BytesPerOp = v
			case "allocs/op":
				r.AllocsPerOp = v
			}
		}
		rows = append(rows, r)
	}
	return rows, procs
}

// summarizeLayers compares the rows of every round, per package and
// benchmark, in the order they first appear: the median over rounds of B's
// ns/op over A's and the rounds B was faster, where both sides have the
// row, and each side's medians, with a flag where a side's B/op or
// allocs/op moved between rounds.
func summarizeLayers(rows []layerRow) []layerSummary {
	type key struct{ pkg, name string }
	var keys []key
	bySide := map[key]map[string]map[int]layerRow{}
	for _, r := range rows {
		k := key{r.Package, r.Name}
		if bySide[k] == nil {
			keys = append(keys, k)
			bySide[k] = map[string]map[int]layerRow{"A": {}, "B": {}}
		}
		bySide[k][r.Side][r.Round] = r
	}
	var out []layerSummary
	for _, k := range keys {
		s := layerSummary{Package: k.pkg, Name: k.name}
		a, b := bySide[k]["A"], bySide[k]["B"]
		var ratios []float64
		for _, round := range slices.Sorted(maps.Keys(a)) {
			if rb, ok := b[round]; ok {
				ratios = append(ratios, rb.NsPerOp/a[round].NsPerOp)
				if rb.NsPerOp < a[round].NsPerOp {
					s.Won++
				}
			}
		}
		s.Rounds = len(ratios)
		if len(ratios) > 0 {
			s.MedianRatio = metrics.Median(ratios)
		}
		s.RoundsA, s.NsA, s.BytesA, s.AllocsA, s.BytesVaryA, s.AllocsVaryA = sideMedians(a)
		s.RoundsB, s.NsB, s.BytesB, s.AllocsB, s.BytesVaryB, s.AllocsVaryB = sideMedians(b)
		out = append(out, s)
	}
	return out
}

// sideMedians is one side's round count and median ns/op, B/op and
// allocs/op of a row, and whether B/op and allocs/op moved between rounds.
func sideMedians(rows map[int]layerRow) (n int, ns, bytes, allocs float64, bytesVary, allocsVary bool) {
	if len(rows) == 0 {
		return 0, 0, 0, 0, false, false
	}
	var nss, bs, as []float64
	for _, r := range rows {
		nss, bs, as = append(nss, r.NsPerOp), append(bs, r.BytesPerOp), append(as, r.AllocsPerOp)
	}
	return len(rows), metrics.Median(nss), metrics.Median(bs), metrics.Median(as),
		slices.Min(bs) != slices.Max(bs), slices.Min(as) != slices.Max(as)
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
// "lower", the way it gets better, and marks its end-to-end metrics; an
// unreadable file yields none.
func directions(dir string) (better map[string]string, endToEnd map[string]bool) {
	var m struct {
		EndToEnd []struct{ Name, Better string } `json:"end_to_end"`
		PerLayer []struct{ Name, Better string } `json:"per_layer"`
	}
	better, endToEnd = map[string]string{}, map[string]bool{}
	js, err := os.ReadFile(filepath.Join(dir, "BENCHMARK.json"))
	if err != nil || json.Unmarshal(js, &m) != nil {
		return better, endToEnd
	}
	for _, d := range m.EndToEnd {
		endToEnd[d.Name] = true
	}
	for _, d := range append(m.EndToEnd, m.PerLayer...) {
		better[d.Name] = d.Better
	}
	return better, endToEnd
}

// guardedFigures maps each workload to the metrics benchmark/expected.json
// in dir commits values for at some seed: the figures the benchmark guards,
// exact by contract. An unreadable file yields none.
func guardedFigures(dir string) map[string]map[string]bool {
	var m map[string]map[string]map[string]float64 // workload → seed → metric → value
	out := map[string]map[string]bool{}
	js, err := os.ReadFile(filepath.Join(dir, "benchmark", "expected.json"))
	if err != nil || json.Unmarshal(js, &m) != nil {
		return out
	}
	for w, seeds := range m {
		out[w] = map[string]bool{}
		for _, figures := range seeds {
			for name := range figures {
				out[w][name] = true
			}
		}
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

// exactFigures splits workload w's metrics in runs, leaving out those that
// read 0 on every run: it returns the ones the pair summary covers (the
// end-to-end metrics and every metric that is not exact), each exact
// metric's figure per seed that both sides ran, and the guarded figures
// that differ between runs of one side at one seed.
func exactFigures(w string, runs []runRecord, better map[string]string, endToEnd, guarded map[string]bool) (
	pairMetrics map[string]bool, exact []exactFigure, unstable []nondeterministic) {
	type group struct {
		side string
		seed uint64
	}
	values := map[string]map[group][]float64{} // metric → side and seed → one value per run
	for _, rec := range runs {
		if rec.Workload != w {
			continue
		}
		r, _ := parse(rec.Line)
		for name, m := range r.Metrics {
			if values[name] == nil {
				values[name] = map[group][]float64{}
			}
			k := group{rec.Side, rec.Seed}
			values[name][k] = append(values[name][k], m.Value)
		}
	}
	pairMetrics = map[string]bool{}
	for _, name := range slices.Sorted(maps.Keys(values)) {
		groups := values[name]
		if !slices.ContainsFunc(slices.Collect(maps.Values(groups)), func(vs []float64) bool {
			return slices.ContainsFunc(vs, func(v float64) bool { return v != 0 })
		}) {
			continue
		}
		consistent, repeated := true, false
		for _, k := range slices.SortedFunc(maps.Keys(groups), func(a, b group) int {
			return cmp.Or(strings.Compare(a.side, b.side), cmp.Compare(a.seed, b.seed))
		}) {
			vs := groups[k]
			repeated = repeated || len(vs) > 1
			if slices.ContainsFunc(vs, func(v float64) bool { return math.Float64bits(v) != math.Float64bits(vs[0]) }) {
				consistent = false
				if guarded[name] {
					unstable = append(unstable, nondeterministic{Workload: w, Metric: name, Side: k.side, Seed: k.seed, Values: vs})
				}
			}
		}
		if endToEnd[name] || !consistent || !(repeated || guarded[name]) {
			pairMetrics[name] = true
			continue
		}
		var seeds []uint64
		for k := range groups {
			if _, ok := groups[group{"B", k.seed}]; k.side == "A" && ok {
				seeds = append(seeds, k.seed)
			}
		}
		slices.Sort(seeds)
		for _, seed := range seeds {
			a, b := groups[group{"A", seed}][0], groups[group{"B", seed}][0]
			f := exactFigure{Workload: w, Metric: name, Seed: seed, Better: better[name], A: a, B: b,
				Equal: math.Float64bits(a) == math.Float64bits(b)}
			if a != 0 || b == 0 {
				change := 0.0
				if !f.Equal && a != 0 {
					change = (b - a) / a
				}
				f.Change = &change
			}
			exact = append(exact, f)
		}
	}
	return pairMetrics, exact, unstable
}

// summarize compares side B with side A on workload w, metric by metric,
// over the pairs in runs, where the workload's runs 2i and 2i+1 are pair
// i's, in the order they ran. A metric enters only if it is one of
// include and every run of the workload reports it, none of them 0.
func summarize(w string, runs []runRecord, better map[string]string, include map[string]bool) []summary {
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
		if len(v) != len(own) || !include[name] || slices.Contains(v, 0) {
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
	reportExact(w, l.Exact)
	for _, u := range l.Unstable {
		fmt.Fprintf(w, "%-12s determinism failure: %s differs between side %s's runs at seed %d: %v\n", u.Workload, u.Metric, u.Side, u.Seed, u.Values)
	}
	for _, f := range l.Failed {
		fmt.Fprintf(w, "%-12s failed runs (non-zero exit or correct:false): A %d/%d, B %d/%d\n", f.Workload, f.A, f.Runs, f.B, f.Runs)
	}
	if len(l.LayerSummary) == 0 {
		return
	}
	fmt.Fprintf(w, "%-48s %8s %8s %12s %12s %10s %10s\n", "layer row (B/A ns/op)", "median", "won", "B/op A", "B/op B", "allocs A", "allocs B")
	for _, s := range l.LayerSummary {
		ratio, won := "-", "-"
		if s.Rounds > 0 {
			ratio, won = fmt.Sprintf("%.4f", s.MedianRatio), fmt.Sprintf("%d/%d", s.Won, s.Rounds)
		}
		fmt.Fprintf(w, "%-48s %8s %8s %12s %12s %10s %10s\n", s.Package+" "+s.Name, ratio, won,
			perSide(s.RoundsA, s.BytesA, s.BytesVaryA), perSide(s.RoundsB, s.BytesB, s.BytesVaryB),
			perSide(s.RoundsA, s.AllocsA, s.AllocsVaryA), perSide(s.RoundsB, s.AllocsB, s.AllocsVaryB))
	}
}

// reportExact prints the exact figures: one line for a metric whose bits
// match at every seed, and otherwise one line per seed with A, B, the
// relative change and, where BENCHMARK.json gives a direction, whether B
// is better or worse.
func reportExact(w io.Writer, figures []exactFigure) {
	if len(figures) == 0 {
		return
	}
	fmt.Fprintf(w, "%-12s %-40s %6s %22s %22s %s\n", "workload", "exact metric", "seed", "A", "B", "change")
	for i := 0; i < len(figures); {
		j := i
		for j < len(figures) && figures[j].Workload == figures[i].Workload && figures[j].Metric == figures[i].Metric {
			j++
		}
		same := figures[i:j]
		if !slices.ContainsFunc(same, func(f exactFigure) bool { return !f.Equal }) {
			fmt.Fprintf(w, "%-12s %-40s %6s %22s %22s equal\n", same[0].Workload, same[0].Metric, "all", "", "")
			i = j
			continue
		}
		for _, f := range same {
			fmt.Fprintf(w, "%-12s %-40s %6d %22s %22s %s\n", f.Workload, f.Metric, f.Seed,
				strconv.FormatFloat(f.A, 'g', -1, 64), strconv.FormatFloat(f.B, 'g', -1, 64), change(f))
		}
		i = j
	}
}

// change describes an exact figure's move from A to B.
func change(f exactFigure) string {
	if f.Equal {
		return "equal"
	}
	s := "changed"
	if f.Change != nil {
		s = fmt.Sprintf("%+.4f%%", 100**f.Change)
	}
	switch {
	case f.Better == "lower" && f.B < f.A, f.Better == "higher" && f.B > f.A:
		s += " better"
	case f.Better == "lower" || f.Better == "higher":
		s += " worse"
	}
	return s
}

// perSide prints one side's median of a count, "-" when the side lacks
// the row, marked with ~ when the count moved between rounds.
func perSide(rounds int, v float64, vary bool) string {
	if rounds == 0 {
		return "-"
	}
	s := strconv.FormatFloat(v, 'f', -1, 64)
	if vary {
		s = "~" + s
	}
	return s
}

func orNone(s string) string {
	if s == "" {
		return "none"
	}
	return s
}
