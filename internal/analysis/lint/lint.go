// Package lint loads Go packages and runs the dmt-lint analyzers over
// them, on the standard library alone.
//
// `go list -deps -test` gives the package graph, test variants included.
// Every package of the main module is parsed and type-checked from
// source, dependencies first, under its real import path; the standard
// library comes from the export data of one `go list -export` over just
// the standard packages the graph reaches, so loading needs no network
// and writes nothing outside the build cache. Every analyzer runs on
// every package of the module, whatever the patterns, so what it records
// about a declaration (Pass.Facts, and the no-return functions behind
// Pass.CFGs) is known before any package that imports it is analyzed,
// and a whole-run check (Analyzer.Finish) sees every use of it; only the
// packages the patterns name report. A package with tests reports through
// its test variant, which holds the same files plus the tests, so each
// finding is reported once.
package lint

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"

	"dmt/internal/analysis/flow"
)

// An Analyzer is one named check, run once per package.
type Analyzer struct {
	Name string
	Run  func(*Pass)
	// Finish, when non-nil, runs once after the last package, for a check
	// that needs the whole run; it reports through the Passes Run saw.
	Finish func()
}

// A Pass is one analyzer's view of one type-checked package.
type Pass struct {
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info
	// CFGs holds the control-flow graph of every function body in Files.
	CFGs flow.Graphs
	// Facts is the analyzer's own set of marked functions, shared by
	// every package of the run: a mark set on a declaration is visible in
	// every package that imports it.
	Facts map[*types.Func]bool

	analyzer string
	diags    *[]Diagnostic // nil where the package is loaded only as a dependency
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	if p.diags != nil {
		*p.diags = append(*p.diags, Diagnostic{p.Fset.Position(pos), p.analyzer, fmt.Sprintf(format, args...)})
	}
}

// A Diagnostic is one finding.
type Diagnostic struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

// WithStack walks root like ast.Inspect, also passing f the path from
// root down to n: stack[0] is root and stack[len(stack)-1] is n. f's
// result says whether to walk n's children.
func WithStack(root ast.Node, f func(n ast.Node, stack []ast.Node) bool) {
	var stack []ast.Node
	ast.Inspect(root, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		stack = append(stack, n)
		if !f(n, stack) {
			stack = stack[:len(stack)-1]
			return false
		}
		return true
	})
}

// Run loads the module at dir, runs the analyzers over every package of it
// and returns the findings in the packages that patterns match, sorted by
// position. It fails, naming the package, when a pattern matches nothing
// or a package does not load or type-check.
func Run(dir string, patterns []string, analyzers []*Analyzer) ([]Diagnostic, error) {
	named, err := goList(dir, append([]string{"-e", "-json=ImportPath"}, patterns...))
	if err != nil {
		return nil, err
	}
	if len(named) == 0 {
		return nil, fmt.Errorf("no packages match %s", strings.Join(patterns, " "))
	}
	reports := map[string]bool{}
	for _, p := range named {
		reports[p.ImportPath] = true
	}
	pkgs, err := goList(dir, append([]string{"-e", "-deps", "-test",
		"-json=ImportPath,Dir,GoFiles,ImportMap,ForTest,Standard,Error", "./..."}, patterns...))
	if err != nil {
		return nil, err
	}
	var errs []error
	var std []string
	hasTestVariant := map[string]bool{}
	for _, p := range pkgs {
		if e := p.Error; e != nil {
			msg := e.Err
			if e.Pos != "" {
				msg = e.Pos + ": " + msg
			}
			errs = append(errs, fmt.Errorf("%s: %s", p.ImportPath, msg))
		}
		if p.Standard {
			std = append(std, p.ImportPath)
		}
		if p.ForTest != "" && p.path() == p.ForTest {
			hasTestVariant[p.ForTest] = true
		}
	}
	if len(errs) > 0 {
		return nil, errors.Join(errs...)
	}
	fset := token.NewFileSet()
	stdImporter, err := exportImporter(dir, fset, std)
	if err != nil {
		return nil, err
	}

	checked := map[string]*types.Package{} // by go list ImportPath, variant suffix included
	noReturn := map[*types.Func]bool{}
	facts := map[*Analyzer]map[*types.Func]bool{}
	for _, a := range analyzers {
		facts[a] = map[*types.Func]bool{}
	}
	var diags []Diagnostic
	for _, p := range pkgs {
		if p.Standard || p.ForTest == "" && strings.HasSuffix(p.ImportPath, ".test") {
			continue // the standard library, or a generated test main
		}
		files, pkg, info, err := p.check(fset, checked, stdImporter)
		if err != nil {
			return nil, err
		}
		checked[p.ImportPath] = pkg
		var report *[]Diagnostic
		if p.reports(reports, hasTestVariant) {
			report = &diags
		}
		graphs := flow.Build(info, files, noReturn)
		for _, a := range analyzers {
			a.Run(&Pass{Fset: fset, Files: files, Pkg: pkg, TypesInfo: info, CFGs: graphs, Facts: facts[a], analyzer: a.Name, diags: report})
		}
	}
	for _, a := range analyzers {
		if a.Finish != nil {
			a.Finish()
		}
	}
	sort.SliceStable(diags, func(i, j int) bool {
		a, b := diags[i].Pos, diags[j].Pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		return a.Offset < b.Offset
	})
	return diags, nil
}

// listed is the part of `go list -json` output the loader reads.
type listed struct {
	ImportPath string
	Dir        string
	GoFiles    []string
	ImportMap  map[string]string
	ForTest    string
	Standard   bool
	Export     string
	Error      *struct{ Pos, Err string }
}

// path is the package's real import path: a test variant's ImportPath
// carries a " [p.test]" suffix.
func (p *listed) path() string {
	path, _, _ := strings.Cut(p.ImportPath, " ")
	return path
}

// reports reports whether p's findings are kept: the patterns named it
// (named is keyed by import path), and it is the test variant of the
// package or its external test package, or a package without a test
// variant.
func (p *listed) reports(named, hasTestVariant map[string]bool) bool {
	if p.ForTest == "" {
		return named[p.ImportPath] && !hasTestVariant[p.ImportPath]
	}
	return named[p.ForTest] && (p.path() == p.ForTest || p.path() == p.ForTest+"_test")
}

// check parses and type-checks p against the packages checked so far
// (imports resolved through p.ImportMap) and the standard library.
func (p *listed) check(fset *token.FileSet, checked map[string]*types.Package, std types.Importer) ([]*ast.File, *types.Package, *types.Info, error) {
	var files []*ast.File
	for _, name := range p.GoFiles {
		f, err := parser.ParseFile(fset, filepath.Join(p.Dir, name), nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, nil, nil, fmt.Errorf("%s: %v", p.ImportPath, err)
		}
		files = append(files, f)
	}
	conf := types.Config{Importer: importerFunc(func(path string) (*types.Package, error) {
		if mapped, ok := p.ImportMap[path]; ok {
			path = mapped
		}
		if pkg, ok := checked[path]; ok {
			return pkg, nil
		}
		return std.Import(path)
	})}
	info := &types.Info{
		Types: map[ast.Expr]types.TypeAndValue{},
		Defs:  map[*ast.Ident]types.Object{},
		Uses:  map[*ast.Ident]types.Object{},
	}
	pkg, err := conf.Check(p.path(), fset, files, info)
	if err != nil {
		return nil, nil, nil, fmt.Errorf("%s: %v", p.ImportPath, err)
	}
	return files, pkg, info, nil
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

// exportImporter returns an importer for the standard packages std, read
// from the compiler's export data.
func exportImporter(dir string, fset *token.FileSet, std []string) (types.Importer, error) {
	exports := map[string]string{}
	if len(std) > 0 { // with no arguments, go list would list the package in dir
		pkgs, err := goList(dir, append([]string{"-export", "-json=ImportPath,Export"}, std...))
		if err != nil {
			return nil, err
		}
		for _, p := range pkgs {
			exports[p.ImportPath] = p.Export
		}
	}
	return importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		file := exports[path]
		if file == "" {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(file)
	}), nil
}

// goList runs `go list args...` in dir and decodes its stream of JSON
// packages.
func goList(dir string, args []string) ([]*listed, error) {
	cmd := exec.Command("go", append([]string{"list"}, args...)...)
	cmd.Dir = dir
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("go list: %v\n%s", err, stderr.Bytes())
	}
	var pkgs []*listed
	for dec := json.NewDecoder(&stdout); dec.More(); {
		p := new(listed)
		if err := dec.Decode(p); err != nil {
			return nil, fmt.Errorf("go list: %v", err)
		}
		pkgs = append(pkgs, p)
	}
	return pkgs, nil
}
