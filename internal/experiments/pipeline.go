package experiments

import (
	"fmt"
	"strings"
	"time"

	"dmt/internal/quant"
	"dmt/internal/topology"
)

// The cross-step pipelining measurement: the Figure 13 methodology (run the
// real engines with the comm runtime in netsim latency mode, read the
// virtual clocks) pointed at the step BOUNDARY instead of the step
// interior. The overlapped schedule hides the over-arch gradient reduction
// behind the same step's dense and embedding backward; when the over-arch
// is large enough that its bucket drain outlasts that backward window, the
// excess surfaces as exposed time at the boundary while the next step's
// SPTT forward sits idle. The pipelined schedule (distributed.Config.
// Pipeline) lets those buckets complete behind the next step's forward
// instead, and this table measures exactly that: same trajectory, same
// wire bytes, strictly less exposed communication.

// PipelineRow is one (wire scheme, schedule) configuration's per-step
// modeled communication, all mean-per-rank virtual-clock quantities.
type PipelineRow struct {
	Scheme   quant.Scheme
	Pipeline bool // false = the overlapped baseline
	// Whole-step exposed/hidden totals across every group family.
	ExposedComm time.Duration
	HiddenComm  time.Duration
	// Cross-step sub-attribution (pipelined rows only): of the totals
	// above, how much was spent finishing the PREVIOUS step's gradient
	// buckets after the boundary — split into time the next step's forward
	// absorbed (hidden) vs time it could not (exposed).
	CrossStepExposed time.Duration
	CrossStepHidden  time.Duration
	// FinalLoss pins that the trajectory is independent of the schedule.
	FinalLoss float64
}

// Config names the row, e.g. "fp16/pipeline".
func (r PipelineRow) Config() string {
	mode := "overlap"
	if r.Pipeline {
		mode = "pipeline"
	}
	return fmt.Sprintf("%s/%s", r.Scheme, mode)
}

// PipelineReport is the measured boundary-drain table for one hardware
// generation.
type PipelineReport struct {
	Gen     topology.Generation
	Profile TrainingProfile
	Rows    []PipelineRow
}

// PipelineProfile sizes the measurement: the Figure 13 cluster shape with
// the over-arch widened to {512, 256}. At the Figure 13 toy over-arch
// ({128, 64}) the bucket drain already fits inside the SPTT backward
// window and both schedules expose the same irreducible SPTT transfer
// chain; the wider top MLP is the paper-scale regime where the drain
// outlasts the backward and the boundary actually costs something.
func PipelineProfile(gen topology.Generation) TrainingProfile {
	p := Figure13Profile(gen)
	p.TopMLP = []int{512, 256}
	return p
}

// Pipeline measures the boundary table on the given generation's simulated
// fabric: fp32 and fp16 wires, each under the overlapped and the cross-step
// pipelined schedule. The pipelined trainer is drained before its stats are
// read so the deferred tail of the last step is charged. Deterministic:
// identical calls return identical tables, and the acceptance ordering —
// pipeline exposes strictly less than overlap at both schemes — is asserted
// by the package test and the bench-pipeline CI gate.
func Pipeline(gen topology.Generation) PipelineReport {
	rep := PipelineReport{Gen: gen, Profile: PipelineProfile(gen)}
	for _, scheme := range []quant.Scheme{quant.None, quant.FP16} {
		for _, pipeline := range []bool{false, true} {
			p := rep.Profile
			p.Compress = scheme
			p.Overlap = !pipeline
			p.Pipeline = pipeline
			last, st, _ := runTraining(p, false)
			per := func(d time.Duration) time.Duration { return d / time.Duration(st.Steps) }
			rep.Rows = append(rep.Rows, PipelineRow{
				Scheme:           scheme,
				Pipeline:         pipeline,
				ExposedComm:      per(st.Phases.ExposedComm),
				HiddenComm:       per(st.Phases.HiddenComm),
				CrossStepExposed: per(st.Phases.CrossStepExposed),
				CrossStepHidden:  per(st.Phases.CrossStepHidden),
				FinalLoss:        last,
			})
		}
	}
	return rep
}

// Row returns the (scheme, pipeline) row; panics if the report lacks it.
func (r PipelineReport) Row(scheme quant.Scheme, pipeline bool) PipelineRow {
	for _, row := range r.Rows {
		if row.Scheme == scheme && row.Pipeline == pipeline {
			return row
		}
	}
	panic(fmt.Sprintf("experiments: pipeline report has no %s/pipeline=%v row", scheme, pipeline))
}

// FormatPipeline renders the measured boundary-drain table.
func FormatPipeline(r PipelineReport) string {
	us := func(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }
	var b strings.Builder
	p := r.Profile
	fmt.Fprintf(&b, "Cross-step pipelining (measured): per-step exposed comm, DMT-DLRM on simulated %s fabric\n", r.Gen.Name)
	fmt.Fprintf(&b, "(G=%d, L=%d, B=%d, top MLP %v, %d steps; virtual-clock µs, mean per rank; deterministic)\n",
		p.G, p.L, p.LocalBatch, p.TopMLP, p.Steps)
	fmt.Fprintf(&b, "%-14s %9s %9s | %9s %9s | %9s\n",
		"Config", "exposed", "hidden", "xstepExp", "xstepHid", "loss")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%-14s %9.2f %9.2f | %9.2f %9.2f | %9.4f\n",
			row.Config(), us(row.ExposedComm), us(row.HiddenComm),
			us(row.CrossStepExposed), us(row.CrossStepHidden), row.FinalLoss)
	}
	o32, p32 := r.Row(quant.None, false), r.Row(quant.None, true)
	o16, p16 := r.Row(quant.FP16, false), r.Row(quant.FP16, true)
	fmt.Fprintf(&b, "xstepExp/xstepHid: previous step's bucket completion after the boundary, exposed vs\n")
	fmt.Fprintf(&b, "hidden behind the next step's SPTT forward (sub-attribution of exposed/hidden).\n")
	fmt.Fprintf(&b, "pipeline vs overlap: fp32 %.2f -> %.2fµs (-%.1f%%), fp16 %.2f -> %.2fµs (-%.1f%%);\n",
		us(o32.ExposedComm), us(p32.ExposedComm),
		(1-us(p32.ExposedComm)/us(o32.ExposedComm))*100,
		us(o16.ExposedComm), us(p16.ExposedComm),
		(1-us(p16.ExposedComm)/us(o16.ExposedComm))*100)
	fmt.Fprintf(&b, "the loss column is schedule-invariant: the pipelined trajectory is bitwise identical\n")
	return b.String()
}
