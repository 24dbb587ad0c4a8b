// Package determinism defines an analyzer that keeps wall-clock time,
// the global math/rand source, and map iteration order out of the
// packages on the deterministic virtual-clock path.
//
// # Invariant
//
// The simulator's capacity and training claims rest on bitwise
// reproducibility: CI pins golden trajectories, rendered tables, and
// simulated timelines byte-for-byte across runs and GOMAXPROCS settings
// (see ROADMAP). Inside the packages that feed those outputs
// (internal/comm, distributed, netsim, cluster, sptt, embeddings,
// workload) three things silently break that property:
//
//   - time.Now / time.Since / time.Sleep and friends: wall-clock reads
//     vary run to run; simulated paths must advance the virtual Clock
//     instead.
//   - the global math/rand source (rand.Intn, rand.Float64, ...): it is
//     process-seeded and shared; deterministic code must draw from an
//     explicitly seeded *rand.Rand (rand.New(rand.NewSource(seed)) and
//     the rand.NewZipf constructor are allowed).
//   - ranging over a map, or over maps.All, maps.Keys or maps.Values of
//     one: the visitation order changes from run to run. Every such
//     range is reported, whatever its body does; the fix is to range over
//     the slice slices.Sorted(maps.Keys(m)) instead.
//
// Test files are exempt: measuring wall time around a run is how the
// benchmarks work, and test-local iteration order does not feed wire
// traffic or trajectories. Nothing else is: no comment silences a
// finding, so the fix is always to the code.
package determinism

import (
	"go/ast"
	"go/types"

	"dmt/internal/analysis/dmtpkg"
	"dmt/internal/analysis/lint"
)

// Analyzer forbids wall-clock time, global math/rand and map iteration.
var Analyzer = &lint.Analyzer{Name: "determinism", Run: run}

// forbiddenTime are the wall-clock entry points of package time.
var forbiddenTime = map[string]bool{
	"Now": true, "Since": true, "Until": true, "Sleep": true,
	"After": true, "Tick": true, "NewTimer": true, "NewTicker": true, "AfterFunc": true,
}

// allowedRand are the package-level constructors of math/rand{,/v2} that
// build explicitly seeded generators; every other package-level function
// draws from the shared global source.
var allowedRand = map[string]bool{
	"New": true, "NewSource": true, "NewZipf": true, "NewPCG": true, "NewChaCha8": true,
}

// mapIterators are the functions of package maps that yield in map order.
var mapIterators = map[string]bool{"All": true, "Keys": true, "Values": true}

func run(pass *lint.Pass) {
	if !dmtpkg.OnVirtualClockPath(pass.Pkg.Path()) {
		return
	}
	for _, f := range pass.Files {
		if dmtpkg.IsTestFile(pass.Fset, f) {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CallExpr:
				checkCall(pass, n)
			case *ast.RangeStmt:
				checkMapRange(pass, n)
			}
			return true
		})
	}
}

// pkgFunc returns the package-level function that fun selects, or nil.
func pkgFunc(pass *lint.Pass, fun ast.Expr) *types.Func {
	sel, ok := fun.(*ast.SelectorExpr)
	if !ok {
		return nil
	}
	fn, ok := pass.TypesInfo.ObjectOf(sel.Sel).(*types.Func)
	if !ok || fn.Pkg() == nil || fn.Type().(*types.Signature).Recv() != nil {
		return nil
	}
	return fn
}

func checkCall(pass *lint.Pass, call *ast.CallExpr) {
	fn := pkgFunc(pass, call.Fun)
	if fn == nil {
		return
	}
	switch fn.Pkg().Path() {
	case "time":
		if forbiddenTime[fn.Name()] {
			pass.Reportf(call.Pos(), "time.%s reads the wall clock in a virtual-clock package: use the group's Clock", fn.Name())
		}
	case "math/rand", "math/rand/v2":
		if !allowedRand[fn.Name()] {
			pass.Reportf(call.Pos(), "rand.%s draws from the process-global source: use an explicitly seeded rand.New(rand.NewSource(seed))", fn.Name())
		}
	}
}

// checkMapRange reports a range over a map-typed expression or over a
// maps.All/Keys/Values sequence, whatever the loop body does.
func checkMapRange(pass *lint.Pass, rng *ast.RangeStmt) {
	t, ok := pass.TypesInfo.Types[rng.X]
	if !ok {
		return
	}
	if _, isMap := t.Type.Underlying().(*types.Map); isMap || isMapIterator(pass, rng.X) {
		pass.Reportf(rng.Pos(), "map iteration order is observable: range over slices.Sorted(maps.Keys(m))")
	}
}

// isMapIterator reports whether e calls maps.All, maps.Keys or maps.Values.
func isMapIterator(pass *lint.Pass, e ast.Expr) bool {
	call, ok := e.(*ast.CallExpr)
	if !ok {
		return false
	}
	fn := pkgFunc(pass, call.Fun)
	return fn != nil && fn.Pkg().Path() == "maps" && mapIterators[fn.Name()]
}
