package experiments

import (
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"runtime"
	"strings"
	"sync"
	"testing"

	"dmt/internal/topology"
)

var update = flag.Bool("update", false, "rewrite testdata/*.golden from the current output")

// engineGrids are the deterministic tables that goroutines produce: the
// training engines on a simulated fabric, whose virtual-clock numbers must
// not depend on the scheduler, and train's wire-scheme sweep, whose losses
// and byte counts must not either. Each maps to its grid and renderer, as
// registered.
var engineGrids = map[string]struct {
	grid   func(topology.Generation) (Sweep, error)
	render func(Sweep) string
}{
	"fig13":   {Figure13, renderFigure13},
	"embtier": {EmbTier, renderEmbTier},
	"train": {func(topology.Generation) (Sweep, error) { return WireSchemes(DefaultTraining()) },
		renderWireSchemes},
}

var (
	sweepMu       sync.Mutex
	ambientSweeps = map[string]Sweep{}
)

// ambientSweep runs the named engine grid at A100 and the ambient GOMAXPROCS
// once per test binary: TestGoldenTables and the grid's acceptance test
// share the result.
func ambientSweep(t *testing.T, name string) Sweep {
	t.Helper()
	sweepMu.Lock()
	defer sweepMu.Unlock()
	s, ok := ambientSweeps[name]
	if !ok {
		var err error
		if s, err = engineGrids[name].grid(topology.A100); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		ambientSweeps[name] = s
	}
	return s
}

// sameTimeline fails the test unless two sweeps of one engine grid agree
// bit for bit: every Stats field is read off the virtual clocks or the byte
// stream.
func sameTimeline(t *testing.T, a, b Sweep) {
	t.Helper()
	for i := range a.Runs {
		x, y := a.Runs[i], b.Runs[i]
		if x.Name != y.Name || x.FinalLoss != y.FinalLoss || !reflect.DeepEqual(x.Stats, y.Stats) {
			t.Fatalf("%s not deterministic:\n%+v\n%+v", x.Name, x, y)
		}
	}
}

// TestGoldenTables pins every deterministic table byte for byte against
// testdata/<name>.golden (A100, default profiles, an fp32 wire unless the
// table sweeps it): all Model experiments, the engine grids and the fleet
// simulator's capacity table (once: the simulator is single-goroutine, and
// internal/cluster's TestSimulatorDeterministicAcrossRunsAndProcs holds it
// across settings).
// Each engine grid is run at GOMAXPROCS 1 and compared, every Stats field,
// with the shared ambient-GOMAXPROCS sweep, and both are rendered: the one
// determinism check across runs and scheduler settings the grids' acceptance
// tests rely on. Not parallel: it changes the process-wide GOMAXPROCS.
// Regenerate with `go test -run TestGoldenTables -update
// ./internal/experiments` and review the diff.
func TestGoldenTables(t *testing.T) {
	ambient := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(ambient)
	for _, e := range All() {
		fg, onEngines := engineGrids[e.Name]
		if e.Kind != Model && !onEngines && e.Name != "cluster" {
			continue
		}
		path := filepath.Join("testdata", e.Name+".golden")
		check := func(procs int, got string) {
			if *update {
				if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("%s: %v (run with -update to create it)", e.Name, err)
			}
			if got != string(want) {
				t.Errorf("%s at GOMAXPROCS=%d differs from %s:\n--- got ---\n%s--- want ---\n%s", e.Name, procs, path, got, want)
			}
		}
		if !onEngines {
			got, err := e.Run(Options{Gen: topology.A100})
			if err != nil {
				t.Fatalf("%s: %v", e.Name, err)
			}
			check(ambient, got)
			continue
		}
		runtime.GOMAXPROCS(1)
		serial, err := fg.grid(topology.A100)
		runtime.GOMAXPROCS(ambient)
		if err != nil {
			t.Fatalf("%s: %v", e.Name, err)
		}
		check(1, fg.render(serial))
		s := ambientSweep(t, e.Name)
		sameTimeline(t, serial, s)
		check(ambient, fg.render(s))
	}
}

// TestRegistryNamesAppearExactlyOnce: the registry is the only list of
// experiment names, so each name must be unique and usable as-is by every
// reader — once in the -list text, once in some command's run-everything
// sequence (the three commands' kinds partition the registry), and as a
// BenchmarkExperiments sub-benchmark name that b.Run will not rewrite.
func TestRegistryNamesAppearExactlyOnce(t *testing.T) {
	commands := map[string][]Experiment{
		"dmt-bench": Select(Model, Measured),
		"dmt-train": Select(Quality),
		"dmt-serve": Select(Serving),
	}
	runAll := map[string]int{}
	for cmd, exps := range commands {
		listed := map[string]int{}
		for _, line := range strings.Split(strings.TrimSuffix(List(exps), "\n"), "\n") {
			name, doc, _ := strings.Cut(line, " ")
			if strings.TrimSpace(doc) == "" {
				t.Errorf("%s -list: %q has no description", cmd, name)
			}
			listed[name]++
		}
		for _, e := range exps {
			runAll[e.Name]++
			if listed[e.Name] != 1 {
				t.Errorf("%s -list names %q %d times, want 1", cmd, e.Name, listed[e.Name])
			}
			if got, ok := Lookup(exps, e.Name); !ok || got.Name != e.Name {
				t.Errorf("%s -exp %s does not resolve", cmd, e.Name)
			}
		}
	}
	benchName := regexp.MustCompile(`^[a-z0-9]+$`)
	for _, e := range All() {
		if runAll[e.Name] != 1 {
			t.Errorf("%q is in %d run-everything sequences, want 1", e.Name, runAll[e.Name])
		}
		if !benchName.MatchString(e.Name) {
			t.Errorf("%q is not a plain sub-benchmark name", e.Name)
		}
		if e.Run == nil {
			t.Errorf("%q has no Run", e.Name)
		}
	}
	if _, ok := Lookup(commands["dmt-train"], "fig9learned"); !ok {
		t.Error("dmt-train's run-everything sequence lacks fig9learned")
	}
}
