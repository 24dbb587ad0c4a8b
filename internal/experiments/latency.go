package experiments

import (
	"fmt"
	"strings"
	"time"

	"dmt/internal/netsim"
	"dmt/internal/quant"
	"dmt/internal/topology"
)

// The measured Figure 13: instead of evaluating the closed-form performance
// model (Figure13Model), this experiment RUNS the distributed training
// engines with the comm runtime in simulated-latency mode — every message
// delayed by the netsim fabric's point-to-point cost over the actual G/L
// host placement — and reads the component latencies off the virtual
// clocks. The decomposition therefore reflects the real dataflow's message
// pattern, bucketing, compression, and schedule, not an aggregate formula;
// and because the virtual timeline is a pure function of the byte stream,
// the table is bit-for-bit reproducible in CI.

// Figure13Row is one (wire scheme, schedule) configuration's per-step
// modeled component latencies, all mean-per-rank virtual-clock quantities.
type Figure13Row struct {
	Scheme  quant.Scheme
	Overlap bool
	// Modeled over-arch compute.
	DenseFwd time.Duration
	DenseBwd time.Duration
	// SPTT dataflow communication, forward and backward, split into
	// transfer time the schedule exposed vs hid behind compute.
	SPTTFwdExposed time.Duration
	SPTTFwdHidden  time.Duration
	SPTTBwdExposed time.Duration
	SPTTBwdHidden  time.Duration
	// Whole-step totals across every group family (SPTT plus the over-arch
	// gradient reduction on the world group).
	ExposedComm time.Duration
	HiddenComm  time.Duration
	// FinalLoss pins that the trajectory is independent of the schedule and
	// the fabric (it differs across schemes — quantization is lossy).
	FinalLoss float64
}

// Config names the row, e.g. "fp16/overlap".
func (r Figure13Row) Config() string {
	mode := "blocking"
	if r.Overlap {
		mode = "overlap"
	}
	return fmt.Sprintf("%s/%s", r.Scheme, mode)
}

// Figure13Report is the measured component-latency table for one hardware
// generation.
type Figure13Report struct {
	Gen     topology.Generation
	Profile TrainingProfile
	Rows    []Figure13Row
}

// Figure13Profile sizes the measurement: the DefaultTraining cluster shape
// (8 ranks, 4 hosts of 2) over fewer steps, so the table regenerates in
// seconds inside CI.
func Figure13Profile(gen topology.Generation) TrainingProfile {
	p := DefaultTraining()
	p.Steps = 3
	p.Fabric = netsim.New(gen)
	return p
}

// Figure13 measures the component-latency table on the given generation's
// simulated fabric: fp32 and fp16 wires, each under the blocking and the
// overlapped schedule. Deterministic: identical calls return identical
// tables, and the acceptance ordering — overlap exposes less than blocking,
// fp16 less than fp32, and fp16/overlap less than fp32/blocking — is
// asserted by the package test and the bench-latency CI gate.
func Figure13(gen topology.Generation) Figure13Report {
	rep := Figure13Report{Gen: gen, Profile: Figure13Profile(gen)}
	for _, scheme := range []quant.Scheme{quant.None, quant.FP16} {
		for _, overlap := range []bool{false, true} {
			p := rep.Profile
			p.Compress = scheme
			p.Overlap = overlap
			last, st, _ := runTraining(p, false)
			per := func(d time.Duration) time.Duration { return d / time.Duration(st.Steps) }
			rep.Rows = append(rep.Rows, Figure13Row{
				Scheme:         scheme,
				Overlap:        overlap,
				DenseFwd:       per(st.Sim.DenseFwd),
				DenseBwd:       per(st.Sim.DenseBwd),
				SPTTFwdExposed: per(st.Sim.SPTTFwdExposed),
				SPTTFwdHidden:  per(st.Sim.SPTTFwdHidden),
				SPTTBwdExposed: per(st.Sim.SPTTBwdExposed),
				SPTTBwdHidden:  per(st.Sim.SPTTBwdHidden),
				ExposedComm:    per(st.Phases.ExposedComm),
				HiddenComm:     per(st.Phases.HiddenComm),
				FinalLoss:      last,
			})
		}
	}
	return rep
}

// Row returns the (scheme, overlap) row; panics if the report lacks it.
func (r Figure13Report) Row(scheme quant.Scheme, overlap bool) Figure13Row {
	for _, row := range r.Rows {
		if row.Scheme == scheme && row.Overlap == overlap {
			return row
		}
	}
	panic(fmt.Sprintf("experiments: figure 13 has no %s/overlap=%v row", scheme, overlap))
}

// FormatFigure13 renders the measured component-latency table.
func FormatFigure13(r Figure13Report) string {
	us := func(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }
	var b strings.Builder
	p := r.Profile
	fmt.Fprintf(&b, "Figure 13 (measured): per-step component latency, DMT-DLRM on simulated %s fabric\n", r.Gen.Name)
	fmt.Fprintf(&b, "(G=%d, L=%d, B=%d, %d steps; virtual-clock µs, mean per rank; deterministic)\n",
		p.G, p.L, p.LocalBatch, p.Steps)
	fmt.Fprintf(&b, "%-14s %9s %9s | %9s %9s %9s %9s | %9s %9s | %9s\n",
		"Config", "denseFwd", "denseBwd",
		"sFwdExp", "sFwdHid", "sBwdExp", "sBwdHid",
		"exposed", "hidden", "loss")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%-14s %9.2f %9.2f | %9.2f %9.2f %9.2f %9.2f | %9.2f %9.2f | %9.4f\n",
			row.Config(), us(row.DenseFwd), us(row.DenseBwd),
			us(row.SPTTFwdExposed), us(row.SPTTFwdHidden),
			us(row.SPTTBwdExposed), us(row.SPTTBwdHidden),
			us(row.ExposedComm), us(row.HiddenComm), row.FinalLoss)
	}
	fp32b := r.Row(quant.None, false)
	fp16o := r.Row(quant.FP16, true)
	fmt.Fprintf(&b, "sFwd/sBwd: SPTT forward/backward comm, exposed vs hidden; exposed/hidden span the\n")
	fmt.Fprintf(&b, "whole step incl. the over-arch gradient reduction. fp16/overlap exposes %.2fµs vs\n",
		us(fp16o.ExposedComm))
	fmt.Fprintf(&b, "fp32/blocking's %.2fµs (%.1fx less): wire bytes set the delays, the schedule hides them\n",
		us(fp32b.ExposedComm), us(fp32b.ExposedComm)/us(fp16o.ExposedComm))
	return b.String()
}
