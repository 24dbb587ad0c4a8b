package main

import "time"

// Every phase runs a fixed number of operations (README rule 1): counters
// then repeat exactly, and a wall-clock rate is work over time rather than
// whatever work fit into a time slot. The counts below were tuned so that
// the measured phase takes about nominalSeconds on the reference box (2
// vCPU) and a whole run stays under 25 s; BENCHMARK.json has no room for
// them (its keys are fixed by the driver), so they live here. `-seconds`
// scales the measured counts linearly; warm-up, checks and rates never
// change at run time.

// setupRounds is how many times an untraced run sets up; setup_s is the
// median round.
const setupRounds = 3

// segments is the base cut of a measured phase: measured counts are whole
// multiples of it, and tail percentiles are read per segment. Median
// latencies use the finer latencySegments, the closed loop's rate the finer
// still fineSegments.
const (
	segments        = 10
	latencySegments = 2 * segments
	fineSegments    = 5 * segments
)

type trainSizes struct {
	warmup     int // steps inside set-up: fills caches, primes the tier, reaches the pipelined steady state
	steps      int // measured steps (a multiple of segments)
	lossTail   int // loss_final averages this many last steps
	checkSteps int // steps compared bit for bit against the sequential engine
	traceSteps int // traced-window steps, each followed by a layer replay
}

type serveSizes struct {
	warmup         int     // closed-loop requests inside set-up (fills the caches)
	openRate       float64 // open-loop arrival rate, requests/s: a fixed share of the reference box's saturation, never adapted at run time
	openRequests   int     // open-loop trace length
	closedRequests int     // closed-loop phase length
	checkSamples   int     // Server.Predict vs direct Predictor.Predict comparisons
	traceRequests  int     // traced-window open-loop requests
}

// closedClients is the closed loop's client count. openClients is the open
// loop's pool of parked clients, and so its cap on requests in flight: about
// twenty times what the steady state holds (rate x latency is ~50 on
// serve_hot), so only a host stall of tens of milliseconds reaches it, and
// then it keeps the stall's backlog from becoming goroutine stacks in
// peak_rss_mb. drainTimeout is how long an open loop waits for stragglers
// before counting them as failed.
const (
	closedClients = 64
	openClients   = 1024
	drainTimeout  = 30 * time.Second
)

type simSizes struct {
	requests      int     // trace length
	rate          float64 // arrival rate, requests/s of virtual time: ~80% of what the 4-replica fleet sustains (it saturates near 3.5 M/s)
	admitRate     float64 // token-bucket admission rate: bursts above it are shed
	warmupReplays int
	replays       int // measured replays, each a segment
}

type sizes struct {
	trainDense, trainEmbed trainSizes
	serveHot, serveCold    serveSizes
	sim                    simSizes
}

func nominalSizes() *sizes {
	return &sizes{
		trainDense: trainSizes{warmup: 24, steps: 140, lossTail: 20, checkSteps: 3, traceSteps: 12},
		trainEmbed: trainSizes{warmup: 30, steps: 140, lossTail: 20, checkSteps: 3, traceSteps: 12},
		serveHot: serveSizes{
			warmup: 170_000, openRate: 32_000, openRequests: 190_000,
			closedRequests: 400_000, checkSamples: 128, traceRequests: 5_000,
		},
		serveCold: serveSizes{
			warmup: 28_000, openRate: 3_500, openRequests: 21_000,
			closedRequests: 80_000, checkSamples: 128, traceRequests: 5_000,
		},
		sim: simSizes{requests: 400_000, rate: 2_800_000, admitRate: 3_200_000, warmupReplays: 1, replays: 8},
	}
}

// scaled applies -seconds to a measured count, keeping it a positive
// multiple of unit, the number of equal parts the phase is cut into.
func scaled(n int, scale float64, unit int) int {
	per := int(float64(n)*scale/float64(unit) + 0.5)
	return max(per, 1) * unit
}
