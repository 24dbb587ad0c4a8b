// Package unreached defines an analyzer that keeps code only a package's
// own tests reach out of the repository's internal packages.
//
// # Invariant
//
// An exported package-level function (one without a receiver) declared in
// a non-test file of an internal/ package is referenced from somewhere
// other than its own package's _test.go files: from a non-test file of
// any package, its own included, or from another package's tests. A
// function only its own tests call is test code in the wrong file, and
// one nothing calls is dead; either way the package's surface is larger
// than what a binary or another package reaches. The fix is to delete
// the function, or move it into a _test.go file of its package.
//
// A reference inside the function's own declaration (recursion) does not
// count. Methods and unexported functions are out of scope: a method can
// be reached through an interface the analyzer does not follow.
//
// Declarations and references are keyed by import path and name, not by
// *types.Func, because a package and its test variant hold distinct
// objects for one declaration. The check needs every package of the run,
// so it reports from Analyzer.Finish, through the declaring package's own
// Pass: the test variant's where the package has tests, so each finding
// appears once.
package unreached

import (
	"go/ast"
	"go/types"
	"strings"

	"dmt/internal/analysis/dmtpkg"
	"dmt/internal/analysis/lint"
)

// declared is one sighting of a declaration: the pass that loaded it and
// the declared name.
type declared struct {
	pass *lint.Pass
	name *ast.Ident
}

// New returns the analyzer. Its state lives for one lint.Run, so every
// run builds its own.
func New() *lint.Analyzer {
	decls := map[string][]declared{} // by key(path, name)
	used := map[string]bool{}
	return &lint.Analyzer{
		Name: "unreached",
		Run: func(pass *lint.Pass) {
			path := pass.Pkg.Path()
			for _, f := range pass.Files {
				test := dmtpkg.IsTestFile(pass.Fset, f)
				for _, d := range f.Decls {
					self := ""
					if fd, ok := d.(*ast.FuncDecl); ok && fd.Recv == nil {
						self = key(path, fd.Name.Name)
						if !test && isInternal(path) && fd.Name.IsExported() {
							decls[self] = append(decls[self], declared{pass, fd.Name})
						}
					}
					ast.Inspect(d, func(n ast.Node) bool {
						id, ok := n.(*ast.Ident)
						if !ok {
							return true
						}
						fn, ok := pass.TypesInfo.Uses[id].(*types.Func)
						if !ok || fn.Pkg() == nil || fn.Type().(*types.Signature).Recv() != nil {
							return true
						}
						k := key(fn.Pkg().Path(), fn.Name())
						ownTest := test && strings.TrimSuffix(path, "_test") == fn.Pkg().Path()
						if k != self && !ownTest {
							used[k] = true
						}
						return true
					})
				}
			}
		},
		Finish: func() {
			for k, ds := range decls {
				if used[k] {
					continue
				}
				for _, d := range ds {
					d.pass.Reportf(d.name.Pos(), "exported function %s is reached from nothing but its own package's tests: delete it or move it into a _test.go file", d.name.Name)
				}
			}
		},
	}
}

func key(path, name string) string { return path + "." + name }

// isInternal reports whether path is an internal/ package, matched by
// path element as dmtpkg matches the repository's packages, so fixture
// modules with their own internal/ trees are covered too.
func isInternal(path string) bool {
	return strings.HasPrefix(path, "internal/") || strings.Contains(path, "/internal/")
}
