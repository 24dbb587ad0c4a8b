# The targets CI runs are the ones humans run; keep them in sync with
# .github/workflows/ci.yml.

GO ?= go

.PHONY: build test test-1proc arena-check race fmt fmt-check vet lint fma-check bench bench-smoke bench-hotpath bench-hotpath-check fp16-exhaustive fuzz-smoke examples-smoke cmds-smoke serve-demo

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# The packages whose ranks hand work to one another (comm's mailboxes, the
# embedding tier's server turns, the SPTT and trainer rank goroutines, the
# serving clients, workers and MaxWait timers) on a single P: a deadlock that extra cores would mask, by letting a blocked
# goroutine's peer run elsewhere, shows here as a hang or a failure.
# -count=1: the runtime reads GOMAXPROCS, which the test cache does not key
# on, so a cached multi-core pass would otherwise stand in for this run.
test-1proc:
	GOMAXPROCS=1 $(GO) test -count=1 ./internal/comm ./internal/embeddings ./internal/sptt ./internal/distributed ./internal/serve

# The use-after-reset check: under the test-only arenacheck build tag,
# tensor.Arena's Reset (and Rewind) fills every chunk it handed out with NaN
# and carves later tensors from fresh chunks, so a tensor kept past its
# pass's Reset reads NaN instead of the next pass's data, and the training
# and prediction goldens of the packages whose passes run on arenas fail
# instead of passing by luck. The allocation pins that count an arena's
# reuse skip under it.
arena-check:
	$(GO) test -count=1 -tags arenacheck ./internal/nn ./internal/towers ./internal/models ./internal/sptt ./internal/distributed

race:
	$(GO) test -race -timeout 30m ./...

fmt:
	gofmt -l -w .

fmt-check:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then echo "gofmt needed on:"; echo "$$out"; exit 1; fi

vet:
	$(GO) vet ./...

# The full lint gate: gofmt, go vet, and the repo's own dmt-lint analyzer
# suite (internal/analysis: pendingwait, determinism, noretain,
# unreached), a standalone command over the packages and their tests.
# staticcheck and the shadow vet tool run too when installed; offline
# environments skip them (CI runs them in the advisory lint-extra job,
# where they are installed from the network).
lint: fmt-check vet
	$(GO) build -o bin/dmt-lint ./cmd/dmt-lint && bin/dmt-lint ./...
	@if command -v staticcheck >/dev/null 2>&1; then staticcheck ./...; \
	else echo "lint: staticcheck not installed; skipped"; fi
	@if command -v shadow >/dev/null 2>&1; then $(GO) vet -vettool=$$(command -v shadow) ./...; \
	else echo "lint: shadow not installed; skipped"; fi

# arm64 compiles x += a*b into one fused multiply-add (FMADD/FMSUB/FNMADD/
# FNMSUB), which rounds once where amd64 rounds twice, so a fused op on the
# training path breaks the bitwise goldens there, and one in a closed-form
# model moves its tables. Writing the product as float32(a*b) or
# float64(a*b) keeps it apart. Cross-compiles for arm64 (no emulator, no
# network) the trainer's test binary, the models' (every model's forward,
# Predict included, the towers and the metrics) and the experiments' (the
# closed-form packages every table is rendered from: perfmodel, netsim,
# metrics, partition, parallel, workload, cluster and serve's cost model),
# and fails if any function from a non-test dmt/ file contains a fused op.
fma-check:
	@mkdir -p bin
	GOARCH=arm64 $(GO) test -c -o bin/fma-check-arm64.test ./internal/distributed
	GOARCH=arm64 $(GO) test -c -o bin/fma-check-models-arm64.test ./internal/models
	GOARCH=arm64 $(GO) test -c -o bin/fma-check-experiments-arm64.test ./internal/experiments
	@for b in bin/fma-check-arm64.test bin/fma-check-models-arm64.test bin/fma-check-experiments-arm64.test; do $(GO) tool objdump $$b; done | awk ' \
		/^TEXT / { fn = $$2; file = $$3; next } \
		/\t(FMADD|FMSUB|FNMADD|FNMSUB)[SD]? / && fn ~ /^dmt\// && file !~ /_test\.go$$/ { print "fma-check: " fn " " $$1 ": " $$4; bad = 1 } \
		END { if (bad) { print "fma-check: fused multiply-add in non-test code; write the product as float32(a*b) or float64(a*b)"; exit 1 } }'

bench:
	$(GO) test -run '^$$' -bench . -benchmem -timeout 60m .

# One iteration of every root benchmark: proves they compile and run.
# BenchmarkExperiments regenerates each registered table (the quality ones
# at the smoke profile); BenchmarkDistributedStep runs the four schedules.
# The compressed-wire, simulated-fabric and remote-tier step shapes are
# benchmark/'s train_dense / train_embed workloads (CI's benchmark-exact).
bench-smoke:
	$(GO) test -run '^$$' -bench . -benchtime 1x -timeout 20m .

# Hot-path kernel benchmarks: each vector entry point (MatMul, MatMulBT,
# MatMulAT) against its scalar row routine at train_dense's and over-arch
# shapes, MatMul and MatMulAT also with every other A element zero (a
# ReLU-gated gradient), MatMulBT also at the width-1 logit layer's (all
# edge columns), Adam and AddInPlace vector vs scalar at an over-arch
# weight's size, the ReLU gate (backward and in-place forward) on an
# over-arch activation and
# the interaction backward (PairwiseUpperGrad) at train_dense's input and
# the interaction forward (PairwiseUpperInto) at the serving batch's
# (32, 9, 128) and train_dense's (64, 17, 16) inputs, vector vs scalar,
# the fp16 encode and its fused residual pass vector vs
# scalar on a gradient-like, mostly half-subnormal payload, the fused vs
# unfused quantized codec with allocs/op (-benchmem), the fused encode on
# the gradient-like payload, and the codec's receive side (decode/addto,
# MB/s of fp32) on a uniform and on the gradient-like payload — the
# before/after numbers behind the README's "Hot-path kernels" section — the embedding
# tier's caches: a Cached(Local) Lookup+Update round at one train_embed
# rank's shape, Keyed hits and evicting inserts on 128-float tower rows,
# one key a call and batch-32 GetRows/PutRows as Predict makes them, and the cluster
# simulator's LRUSet hits and evicting inserts (BenchmarkHotpathLRUSet) and one
# whole cluster.Run at sim_fleet's geometry over a 64 Ki-request trace, ns per
# request (BenchmarkHotpathClusterRun) —
# and the serving DMT-DLRM's Predict at batch 32 on cold keys through
# Keyed caches — one rank-parallel training step at the train_dense and
# train_embed benchmark shapes, with its bytes and objects per step
# (BenchmarkHotpathTrainStep) — and the server's own request path, over a
# stub model, at 1, 8 and 32 closed-loop clients (BenchmarkServerPath).
bench-hotpath:
	$(GO) test -run '^$$' -bench '^BenchmarkHotpath' -benchmem -timeout 20m ./internal/tensor ./internal/quant ./internal/embeddings ./internal/models ./internal/cluster ./internal/distributed
	$(GO) test -run '^$$' -bench '^BenchmarkServerPath$$' -benchmem -timeout 20m ./internal/serve

# The two gates nothing else expresses: the vector entry point vs the scalar
# row routine, both on the calling goroutine — MatMul and MatMulBT must be
# >= 1.5x faster at over-arch shapes (skips on a CPU with no vector row
# routine, where it would compare the scalar routine with itself) — and a
# 1–3-row tail costing within 1.25x of one more 4-row slab. Wall-clock
# gates, so they compile only under the benchgate tag, never in
# `make test`. (The codec and EmbeddingBag allocation pins are plain tier-1
# tests.)
bench-hotpath-check:
	$(GO) test -tags benchgate -run '^(TestHotpathMatMulSpeedup|TestRowTailCostsOneSlab)$$' -v ./internal/tensor

# Every float32 input through the fp16 encoders: the scalar toFloat16Sat
# and the selected encode and fused-residual routines (AVX2 where the CPU
# has it) against the reference encoder, by bits, all 2^32 inputs (about a
# minute a core). Too slow for tier-1, so it compiles only under the
# exhaustive build tag.
fp16-exhaustive:
	$(GO) test -tags exhaustive -run '^TestFloat16SatExhaustive$$' -v -timeout 60m ./internal/quant

# Short native-fuzz runs over the GEMM entry points against their scalar row
# routines and one another, the elementwise kernels (AddInPlace, ScaleInPlace, AdamUpdate,
# ReLUGate, the bias adds AddRowVector and AddSumRows), the interaction
# backward (PairwiseUpperGrad, N from 1 to 33) and forward
# (PairwiseUpperInto and BatchedPairwiseDot, batches of 1 to 64 for every
# ragged tail of 8 samples, N from 1 to 300) against their scalar
# references, the wire codec (the fused encode at
# every length mod 8, and the column-window decode DecodeIntoCols into a
# wider destination at an offset), SPTT step (a)'s global-batch bags at
# each owner (and the bytes each message is charged), the pooling backward against its map-based oracle (over tables
# small and large enough for both of its row orders), the LRU core against
# its reference model, Keyed's batch calls (GetRows, FillRows, PutRows)
# against the one-key calls they stand for on a twin cache, CachedStore's
# Lookup and Update against the one-id GetVec/PutVec replay they stand for
# on a twin Keyed, the micro-batcher against its flush rule, and the cluster
# simulator's percentile selection against a sorted copy (go test allows one
# -fuzz target per invocation, hence the separate runs).
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz '^FuzzGEMMKernels$$' -fuzztime 10s ./internal/tensor
	$(GO) test -run '^$$' -fuzz '^FuzzElementwiseKernels$$' -fuzztime 10s ./internal/tensor
	$(GO) test -run '^$$' -fuzz '^FuzzInteractionBackward$$' -fuzztime 10s ./internal/tensor
	$(GO) test -run '^$$' -fuzz '^FuzzInteractionForward$$' -fuzztime 10s ./internal/tensor
	$(GO) test -run '^$$' -fuzz '^FuzzFloat16RoundTrip$$' -fuzztime 10s ./internal/quant
	$(GO) test -run '^$$' -fuzz '^FuzzLinearQuantRoundTrip$$' -fuzztime 10s ./internal/quant
	$(GO) test -run '^$$' -fuzz '^FuzzFusedCodec$$' -fuzztime 10s ./internal/quant
	$(GO) test -run '^$$' -fuzz '^FuzzGlobalBags$$' -fuzztime 10s ./internal/sptt
	$(GO) test -run '^$$' -fuzz '^FuzzPoolBackward$$' -fuzztime 10s ./internal/sptt
	$(GO) test -run '^$$' -fuzz '^FuzzLRUCore$$' -fuzztime 10s ./internal/embeddings
	$(GO) test -run '^$$' -fuzz '^FuzzKeyedRows$$' -fuzztime 10s ./internal/embeddings
	$(GO) test -run '^$$' -fuzz '^FuzzCachedStore$$' -fuzztime 10s ./internal/embeddings
	$(GO) test -run '^$$' -fuzz '^FuzzBatcher$$' -fuzztime 10s ./internal/serve
	$(GO) test -run '^$$' -fuzz '^FuzzPercentiles$$' -fuzztime 10s ./internal/cluster

# The example mains have no tests: build them all and run every cheap one,
# so a panic in any of them fails here. The SPTT walkthrough panics on a
# semantic-preservation violation and prints the Figure 7 traffic
# accounting — the cheapest end-to-end check of the embedding-exchange
# dataflow; the quickstart plans a DMT deployment through partition,
# perfmodel and sptt.TowerAssignment and trains the planned model; the
# topology planner prints its modeled deployment sweep; distributed_training
# trains on simulated ranks and prints the replica sync check. ctr_training
# (~8 s) is only built.
examples-smoke:
	$(GO) build ./examples/...
	$(GO) run ./examples/sptt_walkthrough
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/topology_planner
	$(GO) run ./examples/distributed_training

# Build every command main and drive each one no test runs: the three
# experiment front ends through the registry (a listing and one fast
# experiment each; dmt-serve in both its simulator and its real-server
# mode, the latter on a short closed-loop run) and the partitioner.
# (dmt-lint has its own test, and make lint runs it.)
cmds-smoke:
	$(GO) build ./cmd/...
	$(GO) run ./cmd/dmt-bench -list
	$(GO) run ./cmd/dmt-bench -exp fig13
	$(GO) run ./cmd/dmt-train -list
	$(GO) run ./cmd/dmt-train -exp fig9 -profile smoke
	$(GO) run ./cmd/dmt-serve -cluster
	$(GO) run ./cmd/dmt-serve -requests 512 -unique 64
	$(GO) run ./cmd/dmt-partition -towers 4

serve-demo:
	$(GO) run ./cmd/dmt-serve -requests 8192 -concurrency 32
