// Package analysis is the dmt-lint suite: analyzers, written against the
// standard library's go/ast and go/types alone, that machine-check the
// repository's hand-enforced concurrency, determinism and reachability
// invariants.
//
// Nine PRs in, the correctness story rests on conventions that were
// documented in comments and caught only at runtime — by AssertDrained,
// by checkIdle panics, or by the golden-trajectory CI gates noticing a
// bit flipped. dmt-lint turns each convention into a compile-time
// property:
//
//   - pendingwait, the one row of package handles' table: every
//     comm.Pending returned by a non-blocking collective reaches Wait() or
//     Carry() on all control-flow paths before scope exit, unless
//     ownership transfers (stored in a bucket arena, passed on, returned,
//     captured). Catches leaked handles before the runtime guards do. A
//     row is data: checking another must-discharge handle is one more row.
//     (Wire payloads need none: a quant.Encoded belongs to whoever encoded
//     it, so a receiver owes nothing once it has read one.)
//
//   - determinism: in the packages on the deterministic virtual-clock
//     path (comm, distributed, netsim, cluster, sptt, embeddings,
//     workload), forbid wall-clock reads (time.Now/Since/...), the
//     process-global math/rand source, and every range over a map or
//     over maps.All/Keys/Values, whatever its body does: range over
//     slices.Sorted(maps.Keys(m)) instead. A blind spot: the analyzer
//     sees calls, not goroutines, so a virtual clock READ
//     from one goroutine while another may still advance it (an observer
//     averaging comm.Network clocks while some goroutine still finishes
//     a receive) passes — the value is a pure function of the message
//     stream only once every writer has reached its settled point. Such
//     reads need a join with the writers first (the trainer reads its
//     phase walls after comm.Run joins the ranks, and the embedding
//     tier's server side runs on those ranks, inside their rounds), and a
//     repeat-across-GOMAXPROCS test, not this analyzer, guards them.
//     comm itself reads no wall clock at all: every group runs on a
//     Network's virtual clocks (NewGroup on a private zero-delay one), so
//     exposed and hidden time have one deterministic definition.
//
//   - noretain: the documented no-retention boundaries. Predict
//     implementations must not retain the batch or alias it in their
//     result; results of //dmt:transient-result arena APIs must not
//     escape their caller.
//
//   - unreached: every exported package-level function and exported
//     method of an internal/ package is reached from outside its own
//     package's _test.go files. A method also counts as reached when
//     non-test code calls a same-named method of an interface, or of a
//     type parameter's constraint, its type's method set covers, or when
//     it implements a standard-library interface (String, Error). One
//     only its own tests reach belongs in a _test.go file; one nothing
//     reaches is deleted. It is the one whole-run check: it reports from
//     lint.Analyzer.Finish, after every package of the module has been
//     seen.
//
// # Running
//
// The suite ships as cmd/dmt-lint (`go run ./cmd/dmt-lint ./...`; `make
// lint` builds it into bin/ and runs it after gofmt and go vet). Package
// lint loads the packages and runs the analyzers: packages come from
// `go list`, test variants included, and are type-checked from source;
// every run analyzes the whole module, and only the packages its patterns
// name report. Package flow holds the control-flow graphs and the may-leak walk
// every row of package handles' table runs.
//
// # No escape hatch
//
// No comment silences a finding: every rule holds without exception, so
// a finding is fixed in the code. The one directive the suite reads,
// //dmt:transient-result, adds an obligation (noretain's rule 2) rather
// than lifting one.
package analysis
