package experiments

import (
	"flag"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"strings"
	"testing"

	"dmt/internal/topology"
)

var update = flag.Bool("update", false, "rewrite testdata/*.golden from the current output")

// rankParallel names the deterministic tables that goroutines produce: the
// training engines on a simulated fabric, whose virtual-clock numbers must
// not depend on the scheduler.
var rankParallel = map[string]bool{"fig13": true, "pipeline": true, "embtier": true}

// TestGoldenTables pins every deterministic table byte for byte against
// testdata/<name>.golden (A100, default profiles, fp32): all Model
// experiments, the simulated-fabric grids — rendered at GOMAXPROCS 1 and at
// the ambient setting — and the fleet simulator's capacity table (once: the
// simulator is single-goroutine, and internal/cluster's
// TestSimulatorDeterministicAcrossRunsAndProcs holds it across settings).
// Not parallel: it changes the process-wide GOMAXPROCS. Regenerate with
// `go test -run TestGoldenTables -update ./internal/experiments` and review
// the diff.
func TestGoldenTables(t *testing.T) {
	ambient := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(ambient)
	for _, e := range All() {
		if e.Kind != Model && !rankParallel[e.Name] && e.Name != "cluster" {
			continue
		}
		procs := []int{ambient}
		if rankParallel[e.Name] {
			procs = []int{1, ambient}
		}
		path := filepath.Join("testdata", e.Name+".golden")
		for _, n := range procs {
			runtime.GOMAXPROCS(n)
			got, err := e.Run(Options{Gen: topology.A100})
			if err != nil {
				t.Fatalf("%s: %v", e.Name, err)
			}
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
				t.Errorf("%s at GOMAXPROCS=%d differs from %s:\n--- got ---\n%s--- want ---\n%s", e.Name, n, path, got, want)
			}
		}
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
