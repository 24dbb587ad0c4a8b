package distributed

import (
	"reflect"
	"runtime"
	"testing"
	"time"

	"dmt/internal/netsim"
	"dmt/internal/sptt"
	"dmt/internal/topology"
)

// TestAccountFoldsEveryPhaseField walks PhaseTimes by reflection, charges a
// distinct duration to every field, and asserts account folded each one
// into the cumulative stats. A newly added PhaseTimes field that account
// forgets to fold shows up here as a zero — the satellite regression the
// exposed/hidden split was added under.
func TestAccountFoldsEveryPhaseField(t *testing.T) {
	tr := &Trainer{cfg: Config{G: 2, L: 2}}
	var ph PhaseTimes
	pv := reflect.ValueOf(&ph).Elem()
	durType := reflect.TypeOf(time.Duration(0))
	for i := 0; i < pv.NumField(); i++ {
		f := pv.Type().Field(i)
		if f.Type != durType {
			t.Fatalf("PhaseTimes.%s is %v; this test only knows how to charge time.Duration fields", f.Name, f.Type)
		}
		pv.Field(i).Set(reflect.ValueOf(time.Duration(i + 1)))
	}

	tr.account(&sptt.SPTTState{}, ph)
	tr.account(&sptt.SPTTState{}, ph)

	got := reflect.ValueOf(tr.stats.Phases)
	for i := 0; i < got.NumField(); i++ {
		want := 2 * time.Duration(i+1)
		if d := got.Field(i).Interface().(time.Duration); d != want {
			t.Errorf("account does not fold PhaseTimes.%s: cumulative %v after two steps, want %v",
				got.Type().Field(i).Name, d, want)
		}
	}
	if tr.stats.Steps != 2 {
		t.Fatalf("account counted %d steps, want 2", tr.stats.Steps)
	}
}

// TestPhaseWallsSettledWithRemoteTier is the regression for phase walls
// that raced the embedding servers. The walls lap on the mean over ALL
// virtual clocks, the servers' included, and a server's last receive of a
// round — the client's empty chunk of the response collective, which still
// costs the per-message latency — must land before the rank goroutines
// join, or the same step splits its time between two neighbouring phases
// differently from run to run. The asking client runs that receive itself,
// inside its round; under one and two procs all four walls must read the
// same on every repeat.
func TestPhaseWallsSettledWithRemoteTier(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	walls := func() [4]time.Duration {
		cfg, gen := latencySetup(1)
		cfg.Pipeline = 1
		cfg.Fabric = netsim.New(topology.A100)
		cfg.EmbeddingTier = EmbeddingTier{Servers: 2, CacheRows: 64}
		tr, _ := runSteps(t, cfg, gen, 2)
		defer tr.Close()
		ph := tr.Stats().Phases
		return [4]time.Duration{ph.EmbComm, ph.Dense, ph.GradExchange, ph.Update}
	}
	for _, procs := range []int{1, 2} {
		runtime.GOMAXPROCS(procs)
		want := walls()
		for rep := 1; rep < 50; rep++ {
			if got := walls(); got != want {
				t.Fatalf("GOMAXPROCS %d, repeat %d: phase walls (emb, dense, grad, update) = %v, first run %v", procs, rep, got, want)
			}
		}
	}
}
