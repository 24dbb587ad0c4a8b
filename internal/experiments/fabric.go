package experiments

import (
	"fmt"
	"time"

	"dmt/internal/netsim"
	"dmt/internal/quant"
	"dmt/internal/topology"
)

// The simulated-fabric grids: instead of evaluating the closed-form
// performance model (Figure13Model), these experiments RUN the distributed
// training engines with the comm runtime in simulated-latency mode — every
// message delayed by the netsim fabric's point-to-point cost over the
// actual G/L host placement — and read the component latencies off the
// virtual clocks. The tables therefore reflect the real dataflow's message
// pattern, bucketing, compression, and schedule, not an aggregate formula;
// and because the virtual timeline is a pure function of the byte stream,
// each table is bit-for-bit reproducible (testdata/*.golden pins them).

// Figure13Profile sizes the measurement: the DefaultTraining cluster shape
// (8 ranks, 4 hosts of 2) over fewer steps on a simulated fabric, so the
// table regenerates in seconds inside CI.
func Figure13Profile(gen topology.Generation) TrainingProfile {
	p := DefaultTraining()
	p.Steps = 3
	p.Fabric = netsim.New(gen)
	return p
}

// Figure13 measures the component-latency table on the given generation's
// simulated fabric: fp32 and fp16 wires, each under the blocking and the
// pipelined schedule. The acceptance ordering — pipelining exposes less
// than blocking, fp16 less than fp32, and fp16/pipeline less than
// fp32/blocking — is asserted by TestFigure13Measured.
func Figure13(gen topology.Generation) (Sweep, error) {
	var vs []variant
	for _, scheme := range []quant.Scheme{quant.None, quant.FP16} {
		for _, sch := range []variant{{name: "blocking", set: blocking}, {name: "pipeline", set: pipelined}} {
			vs = append(vs, variant{name: scheme.String() + "/" + sch.name, set: func(p *TrainingProfile) {
				p.Compress = scheme
				sch.set(p)
			}})
		}
	}
	return sweep(Figure13Profile(gen), vs)
}

// embTierCacheRows is the cache capacity the sweep's cache-on rows use —
// large enough to hold every hot row of the default profile, so the hit
// rate converges to the workload's reuse rate rather than an eviction rate.
const embTierCacheRows = 4096

// embTierName names an embedding-tier row, e.g. "local", "s=2/cache=4096".
func embTierName(servers, cacheRows int) string {
	if servers == 0 {
		return "local"
	}
	return fmt.Sprintf("s=%d/cache=%d", servers, cacheRows)
}

// EmbTier is the DisaggRec-style memory:compute question asked of the
// repo's own engines: the Figure 13 job with in-process tables (the
// baseline every other experiment uses), then with the tables on 1, 2 and
// 4 dedicated embedding-server ranks reached over the simulated fabric,
// each with the compute ranks' write-back hot-ID cache off and on. Every
// row follows the bitwise-identical trajectory — the tier moves rows over
// a wire but never changes a value — so the columns isolate pure dataflow
// cost (TestEmbTierCacheReducesExposedLookup holds the ordering).
func EmbTier(gen topology.Generation) (Sweep, error) {
	tier := func(servers, cacheRows int) variant {
		return variant{name: embTierName(servers, cacheRows), set: func(p *TrainingProfile) {
			p.EmbServers, p.EmbCacheRows = servers, cacheRows
		}}
	}
	variants := []variant{tier(0, 0)}
	for _, s := range []int{1, 2, 4} {
		variants = append(variants, tier(s, 0), tier(s, embTierCacheRows))
	}
	return sweep(Figure13Profile(gen), variants)
}

// stepUS is a cumulative duration's per-step mean in µs.
func (r TrainingRun) stepUS(d time.Duration) float64 { return us(r.perStep(d)) }

// exposedUS is the named run's per-step exposed communication, for footers.
func (s Sweep) exposedUS(name string) float64 {
	r := s.Run(name)
	return r.stepUS(r.Stats.Phases.ExposedComm)
}

var (
	colConfig   = column[TrainingRun]{"Config", "%-14s", func(r TrainingRun) any { return r.Name }}
	colExposed  = column[TrainingRun]{"exposed", "%9.2f", func(r TrainingRun) any { return r.stepUS(r.Stats.Phases.ExposedComm) }}
	colHidden   = column[TrainingRun]{"hidden", "%9.2f", func(r TrainingRun) any { return r.stepUS(r.Stats.Phases.HiddenComm) }}
	colLossWide = column[TrainingRun]{"loss", "| %9.4f", func(r TrainingRun) any { return r.FinalLoss }}
)

// renderFigure13 renders the measured component-latency table. The loss
// column pins that the trajectory is independent of the schedule and the
// fabric (it differs across schemes — quantization is lossy).
func renderFigure13(s Sweep) string {
	p := s.Profile
	exp := s.exposedUS
	return table[TrainingRun]{
		title: fmt.Sprintf("Figure 13 (measured): per-step component latency, DMT-DLRM on simulated %s fabric\n"+
			"(%s; virtual-clock µs, mean per rank; deterministic)", p.Fabric.Gen.Name, p.shape()),
		cols: []column[TrainingRun]{
			colConfig,
			{"denseFwd", "%9.2f", func(r TrainingRun) any { return r.stepUS(r.Stats.Sim.DenseFwd) }},
			{"denseBwd", "%9.2f", func(r TrainingRun) any { return r.stepUS(r.Stats.Sim.DenseBwd) }},
			{"sFwdExp", "| %9.2f", func(r TrainingRun) any { return r.stepUS(r.Stats.Sim.SPTTFwdExposed) }},
			{"sFwdHid", "%9.2f", func(r TrainingRun) any { return r.stepUS(r.Stats.Sim.SPTTFwdHidden) }},
			{"sBwdExp", "%9.2f", func(r TrainingRun) any { return r.stepUS(r.Stats.Sim.SPTTBwdExposed) }},
			{"sBwdHid", "%9.2f", func(r TrainingRun) any { return r.stepUS(r.Stats.Sim.SPTTBwdHidden) }},
			{"exposed", "| %9.2f", colExposed.val},
			colHidden,
			colLossWide,
		},
		foot: []string{
			"sFwd/sBwd: SPTT forward/backward comm, exposed vs hidden; exposed/hidden span the",
			fmt.Sprintf("whole step incl. the over-arch gradient reduction. fp16/pipeline exposes %.2fµs vs", exp("fp16/pipeline")),
			fmt.Sprintf("fp32/blocking's %.2fµs (%.1fx less): wire bytes set the delays, the schedule hides them",
				exp("fp32/blocking"), exp("fp32/blocking")/exp("fp16/pipeline")),
		},
	}.render(s.Runs)
}

// renderEmbTier renders the memory:compute sweep: per-step cross-host wire
// KB of the lookup and update rounds, the modeled virtual-clock time the
// clients spent blocked on servers, and how much the hot-ID cache claws back.
func renderEmbTier(s Sweep) string {
	p := s.Profile
	// Per-step means divided in floating point (stepUS truncates to whole
	// nanoseconds first), which is what the table's digits are pinned to.
	kb := func(r TrainingRun, n int64) float64 { return float64(n) / 1024 / float64(r.Stats.Steps) }
	usStep := func(r TrainingRun, d time.Duration) float64 { return us(d) / float64(r.Stats.Steps) }
	off, on := s.Run(embTierName(2, 0)), s.Run(embTierName(2, embTierCacheRows))
	return table[TrainingRun]{
		title: fmt.Sprintf("Embedding tier: disaggregated memory:compute sweep, DMT-DLRM on simulated %s fabric\n"+
			"(G=%d compute ranks, L=%d; per-step wire KB and virtual-clock µs summed over clients; deterministic)",
			p.Fabric.Gen.Name, p.G, p.L),
		cols: []column[TrainingRun]{
			{"Config", "%-16s", func(r TrainingRun) any { return r.Name }},
			{"lkKB", "%9.1f", func(r TrainingRun) any { return kb(r, r.Stats.Tier.LookupCrossBytes) }},
			{"upKB", "%9.1f", func(r TrainingRun) any { return kb(r, r.Stats.Tier.UpdateCrossBytes) }},
			{"hitRate", "%9.3f", func(r TrainingRun) any { return r.HitRate() }},
			{"lkExp", "| %9.2f", func(r TrainingRun) any { return usStep(r, r.Stats.Tier.LookupExposed) }},
			{"upExp", "%9.2f", func(r TrainingRun) any { return usStep(r, r.Stats.Tier.UpdateExposed) }},
			{"lk/up", "| %7s", func(r TrainingRun) any {
				steps := int64(r.Stats.Steps)
				return fmt.Sprintf("%3d/%-3d", r.Stats.Tier.Lookups/steps, r.Stats.Tier.Updates/steps)
			}},
			colLossWide,
		},
		foot: []string{
			"All rows follow one bitwise trajectory (the loss column); the tier only moves rows.",
			fmt.Sprintf("At s=2 the write-back cache cuts lookup wire %.1f->%.1f KB/step and exposed lookup",
				kb(off, off.Stats.Tier.LookupCrossBytes), kb(on, on.Stats.Tier.LookupCrossBytes)),
			fmt.Sprintf("time %.2f->%.2fµs/step (hit rate %.0f%%); update rounds are write-through, so their",
				usStep(off, off.Stats.Tier.LookupExposed), usStep(on, on.Stats.Tier.LookupExposed), 100*on.HitRate()),
			"wire volume is the cache-independent floor.",
		},
	}.render(s.Runs)
}
