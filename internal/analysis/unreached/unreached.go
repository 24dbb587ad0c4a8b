// Package unreached defines an analyzer that keeps code only a package's
// own tests reach out of the repository's internal packages.
//
// # Invariant
//
// An exported package-level function or exported method declared in a
// non-test file of an internal/ package is reached from somewhere other
// than its own package's _test.go files. One only its own tests call is
// test code in the wrong file, and one nothing calls is dead; either way
// the package's surface is larger than what a binary or another package
// reaches. The fix is to delete it, or move it into a _test.go file of
// its package.
//
// Code reaches a function or method by naming it: a non-test file of any
// package, its own included, or another package's tests. A method is
// also reached when a type whose method set holds it
//
//   - has a method of every name an interface lists, and non-test code
//     calls that interface's same-named method, on an interface value or
//     on a type parameter. Names alone decide, as a package's test
//     variant holds distinct types for the same declarations;
//   - implements error or an exported interface of a standard package the
//     module imports that lists the method (String for fmt.Stringer):
//     the standard library's own calls are not analyzed.
//
// A reference inside the declaration itself (recursion) does not count.
//
// Declarations and references are keyed by import path, receiver type
// name and name, not by *types.Func, because a package and its test
// variant hold distinct objects for one declaration. The check needs
// every package of the run, so it reports from Analyzer.Finish, through
// the declaring package's own Pass: the test variant's where the package
// has tests, so each finding appears once.
package unreached

import (
	"go/ast"
	"go/types"
	"slices"
	"strings"

	"dmt/internal/analysis/dmtpkg"
	"dmt/internal/analysis/lint"
)

// declared is one sighting of a declaration: the pass that loaded it, the
// declared name and its object.
type declared struct {
	pass *lint.Pass
	name *ast.Ident
	fn   *types.Func
}

// New returns the analyzer. Its state lives for one lint.Run, so every
// run builds its own.
func New() *lint.Analyzer {
	decls := map[string][]declared{} // by key
	used := map[string]bool{}
	var dispatched []*types.Interface // interfaces non-test code calls through
	var named []*types.Named          // types declared in non-test files
	module := map[string]bool{}       // the import paths of the run's packages
	imported := map[string]*types.Package{}
	return &lint.Analyzer{
		Name: "unreached",
		Run: func(pass *lint.Pass) {
			path := pass.Pkg.Path()
			module[path] = true
			for _, p := range pass.Pkg.Imports() {
				imported[p.Path()] = p
			}
			for _, f := range pass.Files {
				test := dmtpkg.IsTestFile(pass.Fset, f)
				for _, d := range f.Decls {
					self := ""
					switch d := d.(type) {
					case *ast.FuncDecl:
						fn, ok := pass.TypesInfo.Defs[d.Name].(*types.Func)
						if !ok {
							break
						}
						self = key(fn)
						if !test && isInternal(path) && d.Name.IsExported() {
							decls[self] = append(decls[self], declared{pass, d.Name, fn})
						}
					case *ast.GenDecl:
						for _, s := range d.Specs {
							if ts, ok := s.(*ast.TypeSpec); ok && !test {
								if tn, ok := pass.TypesInfo.Defs[ts.Name].(*types.TypeName); ok {
									if n, ok := tn.Type().(*types.Named); ok {
										named = append(named, n)
									}
								}
							}
						}
					}
					ast.Inspect(d, func(n ast.Node) bool {
						id, ok := n.(*ast.Ident)
						if !ok {
							return true
						}
						fn, ok := pass.TypesInfo.Uses[id].(*types.Func)
						if !ok || fn.Pkg() == nil {
							return true
						}
						if it := dispatch(fn); it != nil {
							if !test {
								dispatched = append(dispatched, it)
							}
						} else if k := key(fn); k != self && !(test && strings.TrimSuffix(path, "_test") == fn.Pkg().Path()) {
							used[k] = true
						}
						return true
					})
				}
			}
		},
		Finish: func() {
			std := []*types.Interface{types.Universe.Lookup("error").Type().Underlying().(*types.Interface)}
			for path, p := range imported {
				if !module[path] {
					std = append(std, interfaces(p)...)
				}
			}
			reachDynamically(decls, used, named, dispatched, std)
			for k, ds := range decls {
				if used[k] {
					continue
				}
				for _, d := range ds {
					what, name := "function", d.name.Name
					if recv := d.fn.Signature().Recv(); recv != nil {
						what, name = "method", dmtpkg.Named(recv.Type()).Obj().Name()+"."+name
					}
					d.pass.Reportf(d.name.Pos(), "exported %s %s is reached from nothing but its own package's tests: delete it or move it into a _test.go file", what, name)
				}
			}
		},
	}
}

// reachDynamically marks used each declared, still unreached method in the
// method set of a named type that covers, by names, an interface non-test
// code dispatches through, or implements a standard-library interface,
// when that interface lists the method's name.
func reachDynamically(decls map[string][]declared, used map[string]bool, named []*types.Named, dispatched, std []*types.Interface) {
	for _, n := range named {
		ptr := types.NewPointer(n)
		ms := types.NewMethodSet(ptr)
		pending := map[string]string{} // name -> key of the unreached declared methods ms holds
		var names []string
		for i := range ms.Len() {
			fn := ms.At(i).Obj().(*types.Func)
			names = append(names, fn.Name())
			if k := key(fn); decls[k] != nil && !used[k] {
				pending[fn.Name()] = k
			}
		}
		if len(pending) == 0 {
			continue
		}
		reach := func(it *types.Interface) {
			for i := range it.NumMethods() {
				if k, ok := pending[it.Method(i).Name()]; ok {
					used[k] = true
				}
			}
		}
		for _, it := range dispatched {
			if covers(names, it) {
				reach(it)
			}
		}
		for _, it := range std {
			// Implements is unspecified for an uninstantiated generic type.
			if n.TypeParams() == nil && types.Implements(ptr, it) {
				reach(it)
			}
		}
	}
}

// covers reports whether names holds the name of every method of it.
func covers(names []string, it *types.Interface) bool {
	for i := range it.NumMethods() {
		if !slices.Contains(names, it.Method(i).Name()) {
			return false
		}
	}
	return true
}

// dispatch returns the interface fn is a method of — an interface type's,
// or a type parameter's constraint — or nil for a concrete method or a
// function.
func dispatch(fn *types.Func) *types.Interface {
	recv := fn.Signature().Recv()
	if recv == nil {
		return nil
	}
	t := recv.Type()
	if tp, ok := t.(*types.TypeParam); ok {
		t = tp.Constraint()
	}
	it, _ := t.Underlying().(*types.Interface)
	return it
}

// interfaces returns the exported, non-generic interfaces with methods p
// declares.
func interfaces(p *types.Package) []*types.Interface {
	var out []*types.Interface
	for _, name := range p.Scope().Names() {
		tn, ok := p.Scope().Lookup(name).(*types.TypeName)
		if !ok || !tn.Exported() {
			continue
		}
		if n, ok := tn.Type().(*types.Named); ok && n.TypeParams() != nil {
			continue
		}
		if it, ok := tn.Type().Underlying().(*types.Interface); ok && it.NumMethods() > 0 {
			out = append(out, it)
		}
	}
	return out
}

// key names a function or method by import path, receiver type name and
// name, the same in a package's test variant and for every instance of a
// generic declaration.
func key(fn *types.Func) string {
	fn = fn.Origin()
	k := fn.Pkg().Path() + "."
	if recv := fn.Signature().Recv(); recv != nil && dmtpkg.Named(recv.Type()) != nil {
		k += dmtpkg.Named(recv.Type()).Obj().Name() + "."
	}
	return k + fn.Name()
}

// isInternal reports whether path is an internal/ package, matched by
// path element as dmtpkg matches the repository's packages, so fixture
// modules with their own internal/ trees are covered too.
func isInternal(path string) bool {
	return strings.HasPrefix(path, "internal/") || strings.Contains(path, "/internal/")
}
