package tensor

import (
	"fmt"
	"sort"
)

// Kernel is the swappable matrix-kernel backend behind MatMul, MatMulBT,
// MatMulAT, and BatchedPairwiseDot — the seam that lets a future SIMD or
// assembly backend drop in without touching any caller (nn, distributed,
// serve all reach these ops only through the package-level entry points).
//
// Contract, which every backend must honor:
//
//   - out arrives zero-filled and is written exactly once per element.
//   - Each output element accumulates its dot product in ascending p
//     (reduction-index) order, exactly like the serial reference kernel, so
//     swapping backends never changes float32 results — the training golden
//     trajectories are pinned bitwise against the serial kernel.
//   - The backend owns its parallelism; callers may invoke it from many
//     goroutines at once (the rank-parallel training engine does).
type Kernel interface {
	// Name identifies the backend ("serial", "parallel", ...).
	Name() string
	// MatMul computes out = a @ b for a (m, k), b (k, n), out (m, n).
	MatMul(a, b, out []float32, m, k, n int)
	// MatMulBT computes out = a @ bᵀ for a (m, k), b (n, k), out (m, n).
	MatMulBT(a, b, out []float32, m, k, n int)
	// MatMulAT computes out = aᵀ @ b for a (k, m), b (k, n), out (m, n).
	MatMulAT(a, b, out []float32, k, m, n int)
	// PairwiseDot computes, per sample s of x (bs, f, n), the (f, f) matrix
	// of pairwise dots between x's feature vectors into out (bs, f, f).
	PairwiseDot(x, out []float32, bs, f, n int)
}

// kernels is the backend registry. Guarded by convention rather than a lock:
// registration and selection happen at startup (init, TestMain, or an
// explicit SetKernel before compute starts), never concurrently with running
// ops.
var kernels = map[string]Kernel{
	"serial":   serialKernel{},
	"parallel": parallelKernel{},
}

// active is the backend the package-level ops dispatch to: the parallel
// tiled backend, which itself runs the serial loop whenever there is nothing
// to fan out over (runTiles: one proc, small work, one tile). SetKernel
// substitutes the single-threaded reference or a registered backend.
var active Kernel = kernels["parallel"]

// ActiveKernel returns the backend currently in use.
func ActiveKernel() Kernel { return active }

// KernelNames lists the registered backends, sorted.
func KernelNames() []string {
	names := make([]string, 0, len(kernels))
	for n := range kernels {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// RegisterKernel adds a backend to the registry (the drop-in point for a
// future SIMD/assembly implementation). Call before compute starts.
func RegisterKernel(k Kernel) {
	kernels[k.Name()] = k
}

// SetKernel selects the backend by name and returns a restore function, so
// tests and benchmarks can bracket a region with a specific backend. Must
// not be called concurrently with running ops.
func SetKernel(name string) (restore func(), err error) {
	k, ok := kernels[name]
	if !ok {
		return nil, fmt.Errorf("tensor: unknown kernel %q (have %v)", name, KernelNames())
	}
	prev := active
	active = k
	return func() { active = prev }, nil
}
