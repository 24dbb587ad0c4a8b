// Package dmt is a from-scratch Go reproduction of "Disaggregated
// Multi-Tower: Topology-aware Modeling Technique for Efficient Large Scale
// Recommendation" (Luo et al., MLSys 2024).
//
// The library implements the paper's three contributions — the
// Semantic-Preserving Tower Transform (internal/sptt), Tower Modules
// (internal/towers), and the Tower Partitioner (internal/partition) —
// together with every substrate they need: a float32 tensor/NN stack
// (internal/tensor, internal/nn), an in-process collective runtime
// (internal/comm), a synthetic CTR workload with planted interaction
// structure (internal/data), a calibrated datacenter performance model
// (internal/topology, internal/netsim, internal/perfmodel), the embedding
// store backend (internal/embeddings), the DLRM/DCN model families
// (internal/models), a parallelism-search study (internal/parallel), and
// per-table/figure experiment drivers (internal/experiments).
//
// The root bench_test.go regenerates every table and figure of the paper's
// evaluation from the one registry in internal/experiments; `go run
// ./cmd/dmt-bench -list` and `go run ./cmd/dmt-train -list` print the
// per-experiment index, and each experiment prints its paper-versus-measured
// comparison.
package dmt
