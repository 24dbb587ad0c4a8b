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

// TestTrainingThroughputPipelineRow: with Pipeline set the report grows a
// pipelined row — same bitwise trajectory as the sequential reference, a
// recorded speedup, and the footer rendered in the train table.
func TestTrainingThroughputPipelineRow(t *testing.T) {
	p := SmokeTraining()
	p.Pipeline = true
	r, err := TrainingThroughput(p)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Runs) != 3 {
		t.Fatalf("got %d rows, want 3", len(r.Runs))
	}
	row := r.Runs[2]
	if row.Name != "pipelined" {
		t.Fatalf("unexpected modes: %+v", r.Runs)
	}
	if row.FinalLoss != r.Runs[0].FinalLoss {
		t.Fatalf("pipelined engine diverged: %v vs %v", row.FinalLoss, r.Runs[0].FinalLoss)
	}
	if row.Stats.Steps != p.Steps {
		t.Fatalf("pipelined row counted %d steps, want %d", row.Stats.Steps, p.Steps)
	}
	if row.StepsPerSec() <= 0 {
		t.Fatalf("pipelined steps/s %v", row.StepsPerSec())
	}
	out := renderTraining(r)
	if !strings.Contains(out, "pipelined vs rank-parallel") {
		t.Fatalf("train table missing the pipelined row:\n%s", out)
	}
}
