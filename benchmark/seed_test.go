package main

import (
	"reflect"
	"testing"

	"dmt/internal/data"
)

// -seed drives the generated inputs and nothing else: the same seed must
// give the same inputs, another seed other inputs.

func tinyServeSizes() serveSizes {
	return serveSizes{
		warmup: 64, openRate: 20_000, openRequests: 200,
		closedRequests: 100, checkSamples: 8, traceRequests: 50,
	}
}

func TestServeInputsFollowTheSeed(t *testing.T) {
	sz := tinyServeSizes()
	for _, hot := range []bool{true, false} {
		a := makeServeInputs(11, hot, sz, 200, 100)
		b := makeServeInputs(11, hot, sz, 200, 100)
		c := makeServeInputs(12, hot, sz, 200, 100)
		a.genNSPerReq, b.genNSPerReq, c.genNSPerReq = 0, 0, 0 // a wall-clock reading, not an input
		if !reflect.DeepEqual(a, b) {
			t.Errorf("hot=%v: same seed, different inputs", hot)
		}
		if reflect.DeepEqual(a.openKeys, c.openKeys) || reflect.DeepEqual(a.closedKeys, c.closedKeys) {
			t.Errorf("hot=%v: another seed, same key streams", hot)
		}
		if reflect.DeepEqual(a.trace.Requests, c.trace.Requests) {
			t.Errorf("hot=%v: another seed, same arrival trace", hot)
		}
		if reflect.DeepEqual(a.samples[0], c.samples[0]) {
			t.Errorf("hot=%v: another seed, same samples", hot)
		}
		if len(a.warmKeys) != sz.warmup || len(a.openKeys) != 200 || len(a.closedKeys) != 100 ||
			len(a.traceKeys) != sz.traceRequests || len(a.checkKeys) != sz.checkSamples {
			t.Errorf("hot=%v: key counts do not match the sizes", hot)
		}
	}
}

// serve_cold's keys must never repeat within the tower cache's reach.
func TestColdKeysCycleThroughThePool(t *testing.T) {
	sz := tinyServeSizes()
	in := makeServeInputs(3, false, sz, 200, 100)
	seen := map[int32]bool{}
	for _, keys := range [][]int32{in.warmKeys, in.openKeys, in.closedKeys, in.traceKeys, in.checkKeys} {
		for _, k := range keys {
			if seen[k] {
				t.Fatalf("key %d repeats within %d draws of a %d-key pool", k, len(seen), coldPool)
			}
			seen[k] = true
		}
	}
}

func TestSimTraceFollowsTheSeed(t *testing.T) {
	sz := nominalSizes().sim
	a, b, c := simTrace(5, sz, 500), simTrace(5, sz, 500), simTrace(6, sz, 500)
	if !reflect.DeepEqual(a, b) {
		t.Error("same seed, different trace")
	}
	if reflect.DeepEqual(a.Requests, c.Requests) {
		t.Error("another seed, same trace")
	}
}

func TestTrainBatchesFollowTheSeed(t *testing.T) {
	for _, sh := range []trainShape{trainDenseShape, trainEmbedShape} {
		gen := func(seed uint64) *data.Generator { return data.NewGenerator(sh.dataConfig(seed)) }
		a, b, c := stepBatches(gen(21), 2), stepBatches(gen(21), 2), stepBatches(gen(22), 2)
		if !reflect.DeepEqual(a, b) {
			t.Error("same seed, different batches")
		}
		if reflect.DeepEqual(a[0].Indices, c[0].Indices) {
			t.Error("another seed, same sparse ids")
		}
		if d := stepBatches(gen(21), 3); reflect.DeepEqual(a[0].Indices, d[0].Indices) {
			t.Error("another step, same sparse ids")
		}
	}
}
