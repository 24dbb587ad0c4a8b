package main

import "encoding/json"

// The catalogue is the single list of everything the harness can emit:
// workloads, end-to-end metrics with their bounds, per-layer metrics.
// BENCHMARK.json is this list rendered (`-manifest`), and a unit test holds
// the committed file to it.

// nominalSeconds is BENCHMARK.json's run_seconds: the measured-phase length
// the fixed operation counts in sizes.go were tuned to on the reference box
// (2 vCPU). `-seconds` scales the counts linearly from here; at the nominal
// value every run does exactly the same work.
const nominalSeconds = 10

type metricDef struct {
	name   string
	unit   string
	better string  // "lower" or "higher"
	bound  float64 // end-to-end only: share of the parent's median it may worsen by
	doc    string
	// exact names where the metric is a virtual-clock or counter quantity:
	// "all", one workload, or "" for a wall-clock measurement. An exact
	// metric is bit-identical across runs of one seed and across GOMAXPROCS
	// 1 and 2; the A/A tool and the determinism test hold it to that.
	exact string
}

func (d metricDef) exactOn(workload string) bool { return d.exact == "all" || d.exact == workload }

// allMetrics is the end-to-end list followed by the per-layer list.
func allMetrics() []metricDef {
	return append(append([]metricDef(nil), endToEnd...), perLayer...)
}

// endToEnd lists what a user of the system sees. The driver's contract
// makes every workload report every one of these, never as zero, so the
// list holds only quantities all five workloads have (README "Metrics",
// which also records where this departs from ISSUE.md's table).
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25,
		"median of the run's set-up rounds; each round builds inputs, model, trainer/server and runs the fixed warm-up (the first counts from process start)", ""},
	{"throughput_per_s", "1/s", "higher", 0.25,
		"fastest-decile unit rate: samples/s, unit = one step (train); closed-loop requests/s, unit = 1/50 of the phase (serve); simulated requests per host-second, unit = one replay (sim)", ""},
	{"latency_p50_ms", "ms", "lower", 0.25,
		"fastest decile over 20 segments of the per-segment median: open-loop request latency from due time (serve), wall-clock step time (train); simulated request latency on the virtual clock (sim)", "sim_fleet"},
	{"peak_rss_mb", "MB", "lower", 0.15,
		"resident-set high-water mark at exit (getrusage ru_maxrss, the counter behind VmHWM)", ""},
}

// perLayer lists single layers' metrics, emitted by the traced run. A
// workload that does not exercise a layer reports 0 for it.
var perLayer = []metricDef{
	// The modelled system's end-to-end figures. They are class-specific
	// (train or sim only), so the contract keeps them out of endToEnd; the
	// A/A tool compares them bit for bit instead of against a bound.
	{name: "distributed.modeled_step_us", unit: "us", better: "lower", doc: "virtual-clock advance over the measured steps / steps, on the A100 fabric", exact: "all"},
	{name: "distributed.cross_host_bytes_per_sample", unit: "B", better: "lower", doc: "gradient + embedding cross-host bytes + tier wire bytes per sample", exact: "all"},
	{name: "distributed.loss_final", unit: "nats", better: "lower", doc: "mean StepResult.MeanLoss over the last 20 measured steps", exact: "all"},
	{name: "cluster.sim_latency_p99_us", unit: "us", better: "lower", doc: "cluster.Result.P99", exact: "all"},
	{name: "cluster.sim_slo_share", unit: "ratio", better: "higher", doc: "lower bound on requests served within their class SLO / requests offered, read off the class percentiles (0.99 of a class whose p99 holds, 0.95 if p95, 0.5 if p50); rejects miss", exact: "all"},
	{name: "bench.error_share", unit: "ratio", better: "lower", doc: "failed operations and output checks / attempted"},

	// Demoted under rule 8: wall-clock metrics whose A/A spread on the
	// reference box exceeds any bound the contract allows (README).
	{name: "bench.latency_p99_ms", unit: "ms", better: "lower", doc: "median over segments of the per-segment p99 of the latency_p50_ms samples, segments of >= 5000 requests (sim: the simulator's fleet p99)", exact: "sim_fleet"},
	{name: "bench.cpu_ms_per_op", unit: "ms", better: "lower", doc: "process user+system CPU per operation: per open-loop request (serve), per step (train), per simulated request (sim)"},

	{name: "tensor.matmul_ns_per_flop", unit: "ns", better: "lower", doc: "tensor.MatMul (input-gradient form) over the model's own Linear shapes: all over-arch layers at the local batch, 8 ranks in parallel (train); widest tower projection + top layer at batch 32 (serve)"},
	{name: "tensor.matmul_bt_ns_per_flop", unit: "ns", better: "lower", doc: "tensor.MatMulBT at the same shapes (forward / inference form)"},
	{name: "tensor.matmul_at_ns_per_flop", unit: "ns", better: "lower", doc: "tensor.MatMulAT at the same shapes (weight-gradient form)"},
	{name: "tensor.pairwise_dot_us", unit: "us", better: "lower", doc: "tensor.BatchedPairwiseDot at the model's interaction shape"},

	{name: "quant.encode_gbps", unit: "GB/s", better: "higher", doc: "quant.EncodeResidual over one gradient bucket, fp32 bytes in per second"},
	{name: "quant.decode_gbps", unit: "GB/s", better: "higher", doc: "Encoded.AddTo over the same bucket"},
	{name: "quant.allocs_per_op", unit: "count", better: "lower", doc: "heap allocations per encode+decode round of one bucket"},

	{name: "comm.allgather_batch_us", unit: "us", better: "lower", doc: "IAllGatherBatchEnc (IAllGatherBatch on an fp32 wire) + Wait of one gradient bucket on an instant-delivery G-rank group"},
	{name: "comm.alltoall_us", unit: "us", better: "lower", doc: "AlltoAllTensors at the SPTT peer payload size on a G-rank group"},
	{name: "comm.exposed_us_per_step", unit: "us", better: "lower", doc: "Stats.Phases.ExposedComm per step", exact: "all"},
	{name: "comm.hidden_us_per_step", unit: "us", better: "higher", doc: "Stats.Phases.HiddenComm per step", exact: "all"},
	{name: "comm.cross_step_hidden_us_per_step", unit: "us", better: "higher", doc: "Stats.Phases.CrossStepHidden per step", exact: "all"},
	{name: "comm.grad_cross_bytes_per_step", unit: "B", better: "lower", doc: "Stats.GradCrossHostBytes per step", exact: "all"},
	{name: "comm.grad_intra_bytes_per_step", unit: "B", better: "lower", doc: "Stats.GradIntraHostBytes per step", exact: "all"},

	{name: "sptt.forward_ms", unit: "ms", better: "lower", doc: "Engine.SPTTForwardCompressed on the step's inputs (replay)"},
	{name: "sptt.backward_ms", unit: "ms", better: "lower", doc: "Engine.SPTTBackward (replay)"},
	{name: "sptt.fwd_exposed_us_per_step", unit: "us", better: "lower", doc: "Stats.Sim.SPTTFwdExposed per step", exact: "all"},
	{name: "sptt.bwd_exposed_us_per_step", unit: "us", better: "lower", doc: "Stats.Sim.SPTTBwdExposed per step", exact: "all"},
	{name: "sptt.emb_cross_bytes_per_step", unit: "B", better: "lower", doc: "Stats.EmbCrossHostBytes per step", exact: "all"},
	{name: "sptt.emb_intra_bytes_per_step", unit: "B", better: "lower", doc: "Stats.EmbIntraHostBytes per step", exact: "all"},

	{name: "embeddings.lookup_us", unit: "us", better: "lower", doc: "one Tier.Client(g).Lookup round over all ranks (replay)"},
	{name: "embeddings.update_us", unit: "us", better: "lower", doc: "one Tier.Client(g).Update round over all ranks (replay)"},
	{name: "embeddings.cache_hit_share", unit: "ratio", better: "higher", doc: "Stats.Tier cache hits / (hits+misses) over the measured steps", exact: "all"},
	{name: "embeddings.lookup_wire_bytes_per_step", unit: "B", better: "lower", doc: "Stats.Tier.LookupCrossBytes per step", exact: "all"},
	{name: "embeddings.update_wire_bytes_per_step", unit: "B", better: "lower", doc: "Stats.Tier.UpdateCrossBytes per step", exact: "all"},
	{name: "embeddings.lookup_exposed_us_per_step", unit: "us", better: "lower", doc: "Stats.Tier.LookupExposed per step", exact: "all"},
	{name: "embeddings.update_exposed_us_per_step", unit: "us", better: "lower", doc: "Stats.Tier.UpdateExposed per step", exact: "all"},
	{name: "embeddings.keyed_get_ns", unit: "ns", better: "lower", doc: "embeddings.Keyed.GetVec hit at the server's tower-entry size"},
	{name: "embeddings.keyed_put_ns", unit: "ns", better: "lower", doc: "embeddings.Keyed.PutVec insert+evict on a full cache"},

	{name: "models.dense_forward_ms", unit: "ms", better: "lower", doc: "Replica(g).ForwardDense + loss over all ranks (replay)"},
	{name: "models.dense_backward_ms", unit: "ms", better: "lower", doc: "Replica(g).BackwardTop + BackwardBottom over all ranks (replay)"},
	{name: "towers.forward_us", unit: "us", better: "lower", doc: "one tower module Forward at the SPTT tower batch"},
	{name: "towers.backward_us", unit: "us", better: "lower", doc: "one tower module Backward"},
	{name: "nn.adam_step_us", unit: "us", better: "lower", doc: "nn.Adam.Step over one replica's over-arch parameters"},
	{name: "models.predict_us_per_batch", unit: "us", better: "lower", doc: "Predictor.Predict on a batch of 32, no caches"},
	{name: "models.predict_allocs_per_batch", unit: "count", better: "lower", doc: "heap allocations of that call"},

	{name: "distributed.step_ms_p50", unit: "ms", better: "lower", doc: "Trainer.Step wall time over the traced window, median"},
	{name: "distributed.step_ms_p99", unit: "ms", better: "lower", doc: "the same, p99"},
	{name: "distributed.cpu_ms_per_step", unit: "ms", better: "lower", doc: "process CPU per traced step"},
	{name: "distributed.allocs_per_step", unit: "count", better: "lower", doc: "heap allocations per traced step"},
	{name: "distributed.phase_emb_us", unit: "us", better: "lower", doc: "Stats.Phases.EmbComm per step, virtual clock", exact: "all"},
	{name: "distributed.phase_dense_us", unit: "us", better: "lower", doc: "Stats.Phases.Dense per step", exact: "all"},
	{name: "distributed.phase_grad_us", unit: "us", better: "lower", doc: "Stats.Phases.GradExchange per step", exact: "all"},
	{name: "distributed.phase_update_us", unit: "us", better: "lower", doc: "Stats.Phases.Update per step", exact: "all"},

	{name: "serve.tower_hit_share", unit: "ratio", better: "higher", doc: "Server.Stats().Tower hit share over both measured phases"},
	{name: "serve.emb_hit_share", unit: "ratio", better: "higher", doc: "Server.Stats().Emb hit share"},
	{name: "serve.avg_batch", unit: "count", better: "higher", doc: "requests per forward in the open-loop phase"},
	{name: "serve.batches_per_s", unit: "1/s", better: "lower", doc: "forwards per second in the open-loop phase"},
	{name: "serve.allocs_per_req", unit: "count", better: "lower", doc: "heap allocations per request in the traced window (load generator included)"},
	{name: "serve.saturation_latency_p50_ms", unit: "ms", better: "lower", doc: "closed-loop phase request latency, per-segment median, fastest decile over segments"},
	{name: "serve.latency_p99_worst_segment_ms", unit: "ms", better: "lower", doc: "open-loop phase, the worst segment's p99"},
	{name: "serve.generator_late_ms_max", unit: "ms", better: "lower", doc: "open-loop phase, the latest the generator ever sent a request after it was due"},
	{name: "serve.backlog_at_end", unit: "count", better: "lower", doc: "requests still unanswered when the open-loop schedule ended"},

	{name: "workload.generate_ns_per_req", unit: "ns", better: "lower", doc: "workload.Generate per request"},

	{name: "cluster.run_ms", unit: "ms", better: "lower", doc: "one cluster.Run replay, median over replays"},
	{name: "cluster.allocs_per_req", unit: "count", better: "lower", doc: "heap allocations per simulated request"},
	{name: "cluster.sim_avg_batch", unit: "count", better: "higher", doc: "cluster.Result.AvgBatch", exact: "all"},
	{name: "cluster.sim_tower_hit_share", unit: "ratio", better: "higher", doc: "cluster.Result.Tower hit share", exact: "all"},
	{name: "cluster.sim_reject_share", unit: "ratio", better: "lower", doc: "cluster.Result.RejectRate", exact: "all"},
	{name: "cluster.sim_p50_us", unit: "us", better: "lower", doc: "cluster.Result.P50", exact: "all"},
	{name: "cluster.sim_makespan_ms", unit: "ms", better: "lower", doc: "cluster.Result.Duration", exact: "all"},

	{name: "bench.ref_rate", unit: "1/s", better: "higher", doc: "benchmark-owned integer kernel between segments, median; machine-speed diagnostic, never divided in"},
	{name: "bench.gc_cycles", unit: "count", better: "lower", doc: "GC cycles over the whole run"},
	{name: "bench.run_wall_s", unit: "s", better: "lower", doc: "process start to report"},
	{name: "bench.tracing_overhead_share", unit: "ratio", better: "lower", doc: "1 - traced-window rate / untraced throughput_per_s (serve: traced / untraced p50 latency - 1)"},
	{name: "bench.throughput_mean_per_s", unit: "1/s", better: "higher", doc: "whole-phase mean rate (the figure rule 3 replaces)"},
	{name: "bench.span_share_sptt_embeddings", unit: "ratio", better: "lower", doc: "sptt.* + embeddings.* replay spans / distributed.step spans"},
	{name: "bench.span_share_tensor_quant", unit: "ratio", better: "lower", doc: "tensor.* + quant.* replay spans / distributed.step spans"},
}

type workloadDef struct {
	name string
	why  string
	run  func(rc runConfig) (*report, error)
}

var workloads = []workloadDef{
	{"train_dense", "GEMMs, the fp16 bucketed AllReduce and the cross-step schedule do the work; embeddings are tiny, so embedding-side changes should show nothing", runTrainDense},
	{"train_embed", "SPTT dataflow, remote embedding Lookup/Update rounds and the write-back cache dominate; GEMMs are negligible, so kernel and codec changes should show nothing", runTrainEmbed},
	{"serve_hot", "repeated keys (zipf 1.2 over 1024): tower cache hits >= 0.9, so the batcher and cache reads decide latency and the model forward is mostly skipped", runServeHot},
	{"serve_cold", "distinct keys cycling past the cache capacity: tower cache hits ~ 0, so Predict kernels dominate and the caches are pure insert/evict cost", runServeCold},
	{"sim_fleet", "cluster.Run replays one Poisson trace on a 4-replica fleet near 80% utilisation: no goroutines, no wall clock inside; host speed is the simulator's own cost", runSimFleet},
}

func findWorkload(name string) *workloadDef {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

// manifest renders BENCHMARK.json from the catalogue.
func manifest() ([]byte, error) {
	type wl struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type e2e struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	type layer struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	m := struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []wl     `json:"workloads"`
		EndToEnd   []e2e    `json:"end_to_end"`
		PerLayer   []layer  `json:"per_layer"`
	}{
		Command:    []string{"bash", "benchmark/run.sh"},
		Paths:      []string{"benchmark"},
		RunSeconds: nominalSeconds,
	}
	for _, w := range workloads {
		m.Workloads = append(m.Workloads, wl{w.name, w.why})
	}
	for _, d := range endToEnd {
		m.EndToEnd = append(m.EndToEnd, e2e{d.name, d.unit, d.better, d.bound})
	}
	for _, d := range perLayer {
		m.PerLayer = append(m.PerLayer, layer{d.name, d.unit, d.better})
	}
	b, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}
