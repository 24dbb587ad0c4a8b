package experiments

import (
	"strings"
	"testing"

	"dmt/internal/distributed"
)

// mustRun returns the sweep's named run, failing the test when it has none.
func mustRun(t *testing.T, s Sweep, name string) TrainingRun {
	t.Helper()
	r := s.Run(name)
	if r.Name != name {
		t.Fatalf("sweep has no %q run: %+v", name, s.Runs)
	}
	return r
}

// TestPipelineMeasured is the acceptance gate behind the cross-step
// pipelining table: at G=8 on the simulated
// A100 fabric, the pipelined schedule exposes strictly less modeled
// communication than the overlapped baseline at both wire schemes, the
// pipelined rows actually hide bucket completion across step boundaries,
// the trajectory stays schedule-invariant. TestGoldenTables holds the same
// sweep to a GOMAXPROCS=1 rerun bit for bit.
func TestPipelineMeasured(t *testing.T) {
	r := ambientSweep(t, "pipeline")
	if len(r.Runs) != 4 {
		t.Fatalf("%d rows, want 4", len(r.Runs))
	}
	phases := func(name string) distributed.PhaseTimes { return mustRun(t, r, name).Stats.Phases }
	for _, s := range []string{"fp32", "fp16"} {
		over, pipe := phases(s+"/overlap"), phases(s+"/pipeline")
		// The gate: strictly below the overlapped floor at the same scheme.
		if pipe.ExposedComm >= over.ExposedComm {
			t.Errorf("%s: pipelined exposed %v not strictly below overlapped %v",
				s, pipe.ExposedComm, over.ExposedComm)
		}
		// The mechanism: the previous step's buckets really complete behind
		// the next step's forward — and only the pipelined schedule crosses
		// the boundary at all.
		if pipe.CrossStepHidden <= 0 {
			t.Errorf("%s: pipelined row hid no cross-step bucket completion", s)
		}
		if over.CrossStepExposed != 0 || over.CrossStepHidden != 0 {
			t.Errorf("%s: overlapped row charged cross-step time: %v/%v",
				s, over.CrossStepExposed, over.CrossStepHidden)
		}
		// The fabric and the schedule never change values.
		if pl, ol := r.Run(s+"/pipeline").FinalLoss, r.Run(s+"/overlap").FinalLoss; pl != ol {
			t.Errorf("%s: schedules diverged in value: %v vs %v", s, pl, ol)
		}
	}
	// fp16 wire bytes still reduce exposure under the pipelined schedule.
	if p16, p32 := phases("fp16/pipeline"), phases("fp32/pipeline"); p16.ExposedComm >= p32.ExposedComm {
		t.Errorf("pipelined: fp16 exposed %v not below fp32 %v", p16.ExposedComm, p32.ExposedComm)
	}
	out := renderPipeline(r)
	for _, want := range []string{"fp16/pipeline", "fp32/overlap", "xstepHid"} {
		if !strings.Contains(out, want) {
			t.Fatalf("format missing %q:\n%s", want, out)
		}
	}
}
