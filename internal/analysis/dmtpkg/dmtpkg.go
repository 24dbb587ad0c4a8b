// Package dmtpkg centralizes how the dmt-lint analyzers recognize this
// repository's own packages and types. Matching is by import-path suffix
// ("internal/comm", "internal/data", ...) rather than the literal module
// path, so the analyzers work unchanged on the real module and on the
// stub packages the analyzer test fixtures declare under the same
// relative paths.
package dmtpkg

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// IsPkg reports whether pkg is the repo package living at internal/<name>.
func IsPkg(pkg *types.Package, name string) bool {
	if pkg == nil {
		return false
	}
	return IsPath(pkg.Path(), name)
}

// IsPath reports whether path addresses internal/<name>.
func IsPath(path, name string) bool {
	return path == "internal/"+name || strings.HasSuffix(path, "/internal/"+name)
}

// Named returns the named type behind t, unwrapping one pointer and any
// alias, or nil.
func Named(t types.Type) *types.Named {
	if p, ok := types.Unalias(t).(*types.Pointer); ok {
		t = p.Elem()
	}
	n, _ := types.Unalias(t).(*types.Named)
	return n
}

// IsNamed reports whether t is (a pointer to) the named type
// internal/<pkgName>.<typeName>, under any instantiation.
func IsNamed(t types.Type, pkgName, typeName string) bool {
	n := Named(t)
	if n == nil {
		return false
	}
	obj := n.Obj()
	return obj.Name() == typeName && IsPkg(obj.Pkg(), pkgName)
}

// VirtualClockPackages are the packages on the deterministic
// virtual-clock path: everything whose behavior feeds wire traffic,
// simulated timing, or training trajectories that CI pins bitwise across
// runs and GOMAXPROCS settings.
var VirtualClockPackages = []string{
	"comm", "distributed", "netsim", "cluster", "sptt", "embeddings", "workload",
}

// OnVirtualClockPath reports whether the package at path is covered by
// the determinism analyzer.
func OnVirtualClockPath(path string) bool {
	for _, name := range VirtualClockPackages {
		if IsPath(path, name) {
			return true
		}
	}
	return false
}

// IsTestFile reports whether f was parsed from a _test.go file.
func IsTestFile(fset *token.FileSet, f *ast.File) bool {
	return strings.HasSuffix(fset.Position(f.Pos()).Filename, "_test.go")
}
