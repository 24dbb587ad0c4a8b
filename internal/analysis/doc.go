// Package analysis is the dmt-lint suite: analyzers, written against the
// standard library's go/ast and go/types alone, that machine-check the
// repository's hand-enforced concurrency, refcount, and determinism
// invariants.
//
// Nine PRs in, the correctness story rests on conventions that were
// documented in comments and caught only at runtime — by AssertDrained,
// by checkIdle panics, or by the golden-trajectory CI gates noticing a
// bit flipped. dmt-lint turns each convention into a compile-time
// property:
//
//   - pendingwait: every comm.Pending returned by a non-blocking
//     collective reaches Wait() or Carry() on all control-flow paths
//     before scope exit, unless ownership transfers (stored in a bucket
//     arena, passed on, returned, captured). Catches leaked handles
//     before the runtime guards do.
//
//   - retainrelease: every pooled quant.Encoded reference (minted by
//     Encode/EncodeResidual, or delivered off the wire via a
//     .(*quant.Encoded) assertion) reaches Release() or transfers
//     ownership. A dropped reference is not a crash — the pool tolerates
//     it — but it silently erodes the zero-alloc steady state the
//     hot-path CI gates pin.
//
//   - determinism: in the packages on the deterministic virtual-clock
//     path (comm, distributed, netsim, cluster, sptt, embeddings,
//     workload), forbid wall-clock reads (time.Now/Since/...), the
//     process-global math/rand source, and every range over a map or
//     over maps.All/Keys/Values, whatever its body does: range over
//     slices.Sorted(maps.Keys(m)) instead, or justify the loop with a
//     marker. A blind spot:
//     the analyzer sees calls, not goroutines, so a virtual clock READ
//     from one goroutine while another may still advance it (an observer
//     averaging comm.Network clocks while a persistent server rank
//     finishes a receive) passes — the value is a pure function of the
//     message stream only once every writer has reached its settled
//     point. Such reads need a host-side join with the writers first
//     (embeddings.RemoteTier's per-round settle is one), and a
//     repeat-under-Gosched test, not this analyzer, guards them.
//     comm itself reads no wall clock at all: every group runs on a
//     Network's virtual clocks (NewGroup on a private zero-delay one), so
//     exposed and hidden time have one deterministic definition.
//
//   - noretain: the documented no-retention boundaries. Predict
//     implementations must not retain the batch or alias it in their
//     result; results of //dmt:transient-result arena APIs must not
//     escape their caller.
//
// # Running
//
// The suite ships as cmd/dmt-lint (`go run ./cmd/dmt-lint ./...`; `make
// lint` builds it into bin/ and runs it after gofmt and go vet). Package
// lint loads the packages and runs the analyzers: packages come from
// `go list`, test variants included, and are type-checked from source;
// package flow holds the control-flow graphs and the may-leak walk
// pendingwait and retainrelease share.
//
// # Suppressing a finding
//
// Each analyzer honors a line-level escape hatch with a MANDATORY
// written reason — a bare marker is itself a diagnostic:
//
//	//dmt:pending-ok <reason>           pendingwait
//	//dmt:refcount-ok <reason>          retainrelease
//	//dmt:nondeterministic-ok <reason>  determinism
//	//dmt:retain-ok <reason>            noretain
//
// placed at the end of the offending line or alone on the line above.
// Suppressions are for code that is deliberately outside the invariant
// (a test that leaks a handle to exercise the runtime guard; the trainer's
// wall-clock phase walls, which a run on a fabric never reads), not for
// silencing bugs.
package analysis
