package distributed

import (
	"fmt"
	"math"
	"runtime"
	"testing"
	"time"

	"dmt/internal/netsim"
	"dmt/internal/quant"
	"dmt/internal/topology"
)

// scheduleGolden is one rank-parallel schedule's complete modeled outcome:
// every PhaseTimes field, the Sim breakdown, the four byte counters and the
// last step's loss. All of it is virtual-clock or counter data, so it is
// pinned by value, not by ordering.
type scheduleGolden struct {
	phases PhaseTimes
	// DenseFwd, DenseBwd, SPTTFwdExposed, SPTTFwdHidden, SPTTBwdExposed,
	// SPTTBwdHidden, in ns.
	sim [6]time.Duration
	// GradIntraHostBytes, GradCrossHostBytes, EmbIntraHostBytes,
	// EmbCrossHostBytes.
	bytes    [4]int64
	lossBits uint64
}

func (g scheduleGolden) String() string {
	p := g.phases
	return fmt.Sprintf("{PhaseTimes{%d, %d, %d, %d, %d, %d, %d, %d}, [6]time.Duration{%d, %d, %d, %d, %d, %d}, [4]int64{%d, %d, %d, %d}, %#x}",
		p.EmbComm, p.Dense, p.GradExchange, p.Update, p.ExposedComm, p.HiddenComm, p.CrossStepExposed, p.CrossStepHidden,
		g.sim[0], g.sim[1], g.sim[2], g.sim[3], g.sim[4], g.sim[5],
		g.bytes[0], g.bytes[1], g.bytes[2], g.bytes[3], g.lossBits)
}

// scheduleGoldens were captured from the three hand-written step bodies
// that preceded the one executor (commit e9762c8): G=8, L=2, A100 fabric,
// 3 steps + Drain. "toy" is latencySetup as is (the Figure 13 profile: the
// bucket drain fits inside the SPTT backward window); "wide" widens the top
// MLP to {512, 256} so the drain outlasts that window and the schedules
// actually separate.
var scheduleGoldens = map[string]scheduleGolden{
	"toy/blocking/fp16":    {PhaseTimes{69228, 9, 30228, 0, 99456, 0, 0, 0}, [6]time.Duration{3, 6, 36129, 0, 33099, 0}, [4]int64{49776, 277920, 202752, 110592}, 0x3fe61db8f51e35f6},
	"toy/blocking/fp32":    {PhaseTimes{69348, 9, 30459, 0, 99807, 0, 0, 0}, [6]time.Duration{3, 6, 36189, 0, 33159, 0}, [4]int64{96096, 555840, 202752, 184320}, 0x3fe61dbeec918f1e},
	"toy/overlapped/fp16":  {PhaseTimes{69228, 9, 0, 0, 69228, 33099, 0, 0}, [6]time.Duration{3, 6, 36129, 0, 33099, 0}, [4]int64{49776, 277920, 202752, 110592}, 0x3fe61db8f51e35f6},
	"toy/overlapped/fp32":  {PhaseTimes{69348, 9, 0, 0, 69348, 33159, 0, 0}, [6]time.Duration{3, 6, 36189, 0, 33159, 0}, [4]int64{96096, 555840, 202752, 184320}, 0x3fe61dbeec918f1e},
	"toy/pipelined/fp16":   {PhaseTimes{69228, 9, 0, 0, 69228, 47145, 0, 47145}, [6]time.Duration{3, 6, 36129, 0, 33099, 0}, [4]int64{49776, 277920, 202752, 110592}, 0x3fe61db8f51e35f6},
	"toy/pipelined/fp32":   {PhaseTimes{69348, 9, 0, 0, 69348, 47205, 0, 47205}, [6]time.Duration{3, 6, 36189, 0, 33159, 0}, [4]int64{96096, 555840, 202752, 184320}, 0x3fe61dbeec918f1e},
	"wide/blocking/fp16":   {PhaseTimes{69228, 2250, 111681, 0, 180909, 0, 0, 0}, [6]time.Duration{750, 1500, 36129, 0, 33099, 0}, [4]int64{7341168, 44026272, 202752, 110592}, 0x3fe55f4c5eeafdc6},
	"wide/blocking/fp32":   {PhaseTimes{69348, 2250, 148368, 0, 217716, 0, 0, 0}, [6]time.Duration{750, 1500, 36189, 0, 33159, 0}, [4]int64{14678880, 88052544, 202752, 184320}, 0x3fe55f50fe0a47c6},
	"wide/overlapped/fp16": {PhaseTimes{69228, 2250, 13356, 0, 82584, 46455, 0, 0}, [6]time.Duration{750, 1500, 36129, 0, 33099, 0}, [4]int64{7341168, 44026272, 202752, 110592}, 0x3fe55f4c5eeafdc6},
	"wide/overlapped/fp32": {PhaseTimes{69348, 2250, 44754, 0, 114102, 77913, 0, 0}, [6]time.Duration{750, 1500, 36189, 0, 33159, 0}, [4]int64{14678880, 88052544, 202752, 184320}, 0x3fe55f50fe0a47c6},
	"wide/pipelined/fp16":  {PhaseTimes{69228, 2250, 0, 0, 73680, 51597, 4452, 51597}, [6]time.Duration{750, 1500, 36129, 0, 33099, 0}, [4]int64{7341168, 44026272, 202752, 110592}, 0x3fe55f4c5eeafdc6},
	"wide/pipelined/fp32":  {PhaseTimes{75058, 2250, 0, 0, 89976, 77913, 30708, 77913}, [6]time.Duration{750, 1500, 26109, 0, 33159, 0}, [4]int64{14678880, 88052544, 202752, 184320}, 0x3fe55f50fe0a47c6},
}

// TestScheduleGoldenTimeline pins each schedule's modeled timeline by
// value, under GOMAXPROCS 1 and 2: a refactor of the step executor must
// reproduce every number, not merely keep blocking > overlapped > pipelined.
func TestScheduleGoldenTimeline(t *testing.T) {
	for _, procs := range []int{1, 2} {
		for _, profile := range []string{"toy", "wide"} {
			for _, sched := range []string{"blocking", "overlapped", "pipelined"} {
				for _, s := range []quant.Scheme{quant.None, quant.FP16} {
					name := fmt.Sprintf("%s/%s/%s", profile, sched, s)
					t.Run(fmt.Sprintf("procs=%d/%s", procs, name), func(t *testing.T) {
						defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
						cfg, gen := latencySetup(1)
						if profile == "wide" {
							cfg.Model.TopMLP = []int{512, 256}
						}
						cfg.Overlap = sched == "overlapped"
						if sched == "pipelined" {
							cfg.Pipeline = 1
						}
						cfg.Compression = Compression{Gradient: s, Embedding: s}
						cfg.Fabric = netsim.New(topology.A100)
						tr, losses := runSteps(t, cfg, gen, 3)
						tr.Drain()
						st := tr.Stats()
						got := scheduleGolden{
							phases: st.Phases,
							sim: [6]time.Duration{st.Sim.DenseFwd, st.Sim.DenseBwd,
								st.Sim.SPTTFwdExposed, st.Sim.SPTTFwdHidden,
								st.Sim.SPTTBwdExposed, st.Sim.SPTTBwdHidden},
							bytes: [4]int64{st.GradIntraHostBytes, st.GradCrossHostBytes,
								st.EmbIntraHostBytes, st.EmbCrossHostBytes},
							lossBits: math.Float64bits(losses[2]),
						}
						if want := scheduleGoldens[name]; got != want {
							t.Fatalf("modeled timeline moved\n got: %q: %v,\nwant: %q: %v,", name, got, name, want)
						}
					})
				}
			}
		}
	}
}
