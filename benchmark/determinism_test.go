package main

import (
	"math"
	"runtime"
	"strings"
	"testing"
	"time"
)

// tinySizes shrinks every workload to a few steps / a couple of thousand
// requests: enough to drive every code path and every counter, short
// enough for a test.
func tinySizes() *sizes {
	serveTiny := serveSizes{
		warmup: 500, openRate: 4_000, openRequests: 2_000,
		closedRequests: 2_000, checkSamples: 16, traceRequests: 200,
	}
	return &sizes{
		trainDense: trainSizes{warmup: 2, steps: segments, lossTail: 4, checkSteps: 2, traceSteps: 2},
		trainEmbed: trainSizes{warmup: 2, steps: segments, lossTail: 4, checkSteps: 2, traceSteps: 2},
		serveHot:   serveTiny,
		serveCold:  serveTiny,
		sim:        simSizes{requests: 20_000, rate: 2_800_000, admitRate: 3_200_000, warmupReplays: 1, replays: 3},
	}
}

func inCatalogue(name string) bool {
	for _, d := range allMetrics() {
		if d.name == name {
			return true
		}
	}
	return false
}

func tinyRun(t *testing.T, w workloadDef, procs int, trace bool) *report {
	t.Helper()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	rc := runConfig{seed: 4, scale: 1, trace: trace, rounds: 1, sizes: tinySizes(), started: time.Now()}
	if trace {
		rc.rec = newRecorder()
	}
	rep, err := w.run(rc)
	if err != nil {
		t.Fatalf("%s: %v", w.name, err)
	}
	if rep.failed != 0 {
		t.Fatalf("%s: %d failed operations: %v", w.name, rep.failed, rep.problems)
	}
	return rep
}

// layerProbes names, per workload, metrics a traced run must fill in: one
// or two from every layer the workload exercises.
var layerProbes = map[string][]string{
	"train_dense": {"tensor.matmul_ns_per_flop", "quant.encode_gbps", "comm.allgather_batch_us", "sptt.forward_ms",
		"embeddings.lookup_us", "models.dense_forward_ms", "towers.forward_us", "nn.adam_step_us",
		"distributed.step_ms_p50", "distributed.modeled_step_us", "bench.span_share_tensor_quant"},
	"train_embed": {"tensor.pairwise_dot_us", "comm.alltoall_us", "sptt.backward_ms", "embeddings.update_us",
		"embeddings.cache_hit_share", "embeddings.lookup_wire_bytes_per_step", "bench.span_share_sptt_embeddings"},
	"serve_hot": {"models.predict_us_per_batch", "embeddings.keyed_get_ns", "serve.tower_hit_share",
		"serve.avg_batch", "serve.allocs_per_req", "tensor.matmul_bt_ns_per_flop", "workload.generate_ns_per_req"},
	"serve_cold": {"models.predict_allocs_per_batch", "embeddings.keyed_put_ns", "serve.emb_hit_share",
		"serve.saturation_latency_p50_ms", "serve.batches_per_s"},
	"sim_fleet": {"cluster.run_ms", "cluster.allocs_per_req", "cluster.sim_avg_batch", "cluster.sim_latency_p99_us",
		"cluster.sim_slo_share", "workload.generate_ns_per_req"},
}

// At a 10-step / 2 000-request scale, for every workload: each exact metric
// is identical across two runs (the second one traced) and across
// GOMAXPROCS 1 and 2; each end-to-end metric is present and non-zero; the
// traced run fills in the layers the workload exercises; and nothing is
// emitted that the catalogue (and so BENCHMARK.json) lacks.
func TestWorkloadsAtSmallScale(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload three times at a small scale")
	}
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			base := tinyRun(t, w, 2, false)
			traced := tinyRun(t, w, 2, true)
			single := tinyRun(t, w, 1, false)

			for _, rep := range []*report{base, traced} {
				for name := range rep.values {
					if !inCatalogue(name) {
						t.Errorf("emits %q, which the catalogue does not list", name)
					}
				}
			}
			for _, d := range endToEnd {
				if d.name == "peak_rss_mb" {
					continue // main adds it after the workload returns
				}
				if v, ok := base.values[d.name]; !ok || v == 0 || math.IsNaN(v) {
					t.Errorf("end-to-end metric %s = %v (present %v)", d.name, v, ok)
				}
			}
			for _, name := range layerProbes[w.name] {
				if v := traced.values[name]; v == 0 || math.IsNaN(v) {
					t.Errorf("traced run: %s = %v", name, v)
				}
			}

			nexact := 0
			for _, d := range allMetrics() {
				v, ok := base.values[d.name]
				if !d.exactOn(w.name) || !ok {
					continue
				}
				nexact++
				for label, other := range map[string]*report{"a second run": traced, "GOMAXPROCS=1": single} {
					if o := other.values[d.name]; math.Float64bits(o) != math.Float64bits(v) {
						t.Errorf("exact metric %s = %v, but %v on %s", d.name, v, o, label)
					}
				}
			}
			if !strings.HasPrefix(w.name, "serve") && nexact == 0 {
				t.Error("reported no exact metric")
			}
		})
	}
}
