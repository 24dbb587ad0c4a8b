// Package noretain defines an analyzer that enforces the documented
// no-retention boundaries around models.Predictor.Predict and the
// repo's arena APIs.
//
// # Invariant
//
// Predict's contract (models/predict.go) is explicit: an implementation
// must not retain the batch b or any of its backing arrays past its
// return, and its result must not alias them — the serve worker pool
// reuses the batch's arena for the next flush, so a retained slice is
// silently overwritten with the next micro-batch's data. Symmetrically,
// arena APIs such as the serve worker's mergeScratch.merge return
// storage the arena will reuse: their result must stay within the
// calling function (passing it down a call is fine; the callee obeys its
// own no-retention contract) and must never be stored, sent, or
// returned.
//
// The analyzer checks two rules:
//
//  1. Inside any method named Predict taking a *data.Batch: values
//     derived from the batch (b, b.Dense, b.Indices[f], sub-slices of
//     those) must not be assigned to struct fields, package variables,
//     or map/slice elements of non-locals, sent on channels, captured by
//     go statements, returned, or handed to a VecCache write (PutVec,
//     PutRows, FillRows; inside a row view or filler literal too) without
//     a fresh copy.
//  2. Call results of functions whose doc comment carries the
//     //dmt:transient-result directive (the arena APIs opt in at the
//     declaration; the analyzer exports a fact, so cross-package callers
//     are covered) must not escape the calling function: no field or
//     package-variable stores, channel sends, returns, or go-closure
//     captures. Every result of a multi-value call is tracked. A result
//     stored in an element of a slice the function makes itself (from
//     make or a composite literal) is tracked through that slice in the
//     function that declares it (a closure may fill its caller's per-rank
//     slice); one stored in an element of a parameter's slice, or of a
//     local alias of another value's, is retained. A declaration that itself carries the directive may
//     return a transient result: its callers carry the obligation.
package noretain

import (
	"go/ast"
	"go/types"
	"strings"

	"dmt/internal/analysis/dmtpkg"
	"dmt/internal/analysis/lint"
)

// TransientDirective marks a declaration whose result is arena-backed.
const TransientDirective = "dmt:transient-result"

// Analyzer checks the no-retention contracts of Predictor.Predict and
// the arena APIs. Its Pass.Facts marks the functions declared with
// //dmt:transient-result, so cross-package call sites see the contract.
var Analyzer = &lint.Analyzer{Name: "noretain", Run: run}

func run(pass *lint.Pass) {
	// Mark //dmt:transient-result declarations.
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Doc == nil {
				continue
			}
			for _, c := range fd.Doc.List {
				if strings.HasPrefix(c.Text, "//"+TransientDirective) {
					if fn, ok := pass.TypesInfo.Defs[fd.Name].(*types.Func); ok {
						pass.Facts[fn] = true
					}
				}
			}
		}
	}

	for _, f := range pass.Files {
		lint.WithStack(f, func(n ast.Node, stack []ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncDecl:
				checkPredict(pass, n)
			case *ast.CallExpr:
				checkTransientCall(pass, n, stack)
			}
			return true
		})
	}
}

// checkPredict applies rule 1 to a Predict implementation.
func checkPredict(pass *lint.Pass, fd *ast.FuncDecl) {
	if fd.Recv == nil || fd.Name.Name != "Predict" || fd.Body == nil {
		return
	}
	batch := batchParam(pass, fd)
	if batch == nil {
		return
	}
	checkNoRetention(pass, fd.Body, batch, "the batch",
		"Predict must not retain the batch past its return (the serve worker reuses its arena)", false)
}

// checkTransientCall applies rule 2 to a call site.
func checkTransientCall(pass *lint.Pass, call *ast.CallExpr, stack []ast.Node) {
	fn := calleeFunc(pass, call)
	if fn == nil || !pass.Facts[fn] {
		return
	}
	// A transient result consumed in place (argument, receiver,
	// expression) is fine; track it when bound to a variable or to an
	// element of a local slice, and flag direct escapes. A function that
	// itself carries the directive may return one: its callers then carry
	// the obligation.
	parent := parentNonParen(stack)
	switch p := parent.(type) {
	case *ast.ReturnStmt:
		if !transientFunc(pass, stack) {
			pass.Reportf(call.Pos(), "%s returns arena-backed storage (//%s): it must not escape the caller", fn.Name(), TransientDirective)
		}
	case *ast.AssignStmt:
		for i, r := range p.Rhs {
			if ast.Unparen(r) != ast.Expr(call) || i >= len(p.Lhs) {
				continue
			}
			lhs := p.Lhs[i : i+1]
			if len(p.Rhs) == 1 {
				lhs = p.Lhs // every result of a multi-value call
			}
			for _, l := range lhs {
				checkTransientStore(pass, call, fn, l, stack)
			}
		}
	case *ast.SendStmt:
		pass.Reportf(call.Pos(), "%s returns arena-backed storage (//%s): it must not be sent on a channel", fn.Name(), TransientDirective)
	}
}

// checkTransientStore checks one assignment target of fn's transient
// result. A local variable is tracked through the function that binds it.
// An element of a slice or array that a function makes itself (declared
// in its body from make or a composite literal, and never rebound to
// anything else) keeps the result in that function's frame, which may be a
// closure's caller, so the slice is tracked there. Anything else retains
// it: a parameter's elements are the caller's, and a local alias of
// another value's slice writes into that value.
func checkTransientStore(pass *lint.Pass, call *ast.CallExpr, fn *types.Func, l ast.Expr, stack []ast.Node) {
	if id, ok := l.(*ast.Ident); ok && id.Name == "_" {
		return
	}
	what, contract := fn.Name()+"'s arena-backed result", fn.Name()+" returns arena-backed storage (//"+TransientDirective+")"
	var base *ast.Ident
	element := false
	switch l := l.(type) {
	case *ast.Ident:
		base = l
	case *ast.IndexExpr:
		base, _ = ast.Unparen(l.X).(*ast.Ident)
		element = true
	}
	if base != nil {
		if v, ok := pass.TypesInfo.ObjectOf(base).(*types.Var); ok && isLocalVar(v) {
			if body, transient := declaringBody(pass, stack, v); body != nil && (!element || madeIn(pass, body, v)) {
				checkNoRetention(pass, body, v, what, contract, transient)
				return
			}
		}
	}
	pass.Reportf(call.Pos(), "%s returns arena-backed storage (//%s): storing it retains memory the arena will reuse", fn.Name(), TransientDirective)
}

// madeIn reports whether body declares v and every binding of v in body is
// storage made there: a make call or a composite literal, or an array's
// zero value. A parameter has no binding in body.
func madeIn(pass *lint.Pass, body *ast.BlockStmt, v *types.Var) bool {
	made, other := false, false
	bind := func(rhs ast.Expr) {
		if fresh(pass, rhs) {
			made = true
		} else {
			other = true
		}
	}
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for i, l := range n.Lhs {
				if id, ok := l.(*ast.Ident); ok && pass.TypesInfo.ObjectOf(id) == v {
					if len(n.Rhs) == len(n.Lhs) {
						bind(n.Rhs[i])
					} else {
						other = true
					}
				}
			}
		case *ast.ValueSpec:
			for i, id := range n.Names {
				switch {
				case pass.TypesInfo.Defs[id] != v:
				case len(n.Values) == len(n.Names):
					bind(n.Values[i])
				case len(n.Values) == 0:
					_, array := v.Type().Underlying().(*types.Array)
					made, other = made || array, other || !array
				default:
					other = true
				}
			}
		}
		return true
	})
	return made && !other
}

// fresh reports whether e makes new storage: a call of the make builtin or
// a composite literal.
func fresh(pass *lint.Pass, e ast.Expr) bool {
	switch e := ast.Unparen(e).(type) {
	case *ast.CompositeLit:
		return true
	case *ast.CallExpr:
		id, ok := ast.Unparen(e.Fun).(*ast.Ident)
		if !ok {
			return false
		}
		b, ok := pass.TypesInfo.Uses[id].(*types.Builtin)
		return ok && b.Name() == "make"
	}
	return false
}

// transientFunc reports whether the function the stack's innermost return
// belongs to is a declaration carrying the directive.
func transientFunc(pass *lint.Pass, stack []ast.Node) bool {
	for i := len(stack) - 1; i >= 0; i-- {
		switch f := stack[i].(type) {
		case *ast.FuncLit:
			return false
		case *ast.FuncDecl:
			fn, ok := pass.TypesInfo.Defs[f.Name].(*types.Func)
			return ok && pass.Facts[fn]
		}
	}
	return false
}

// declaringBody returns the body of the innermost function on the stack
// that declares v, and whether that function is a declaration carrying
// the directive.
func declaringBody(pass *lint.Pass, stack []ast.Node, v *types.Var) (*ast.BlockStmt, bool) {
	for i := len(stack) - 1; i >= 0; i-- {
		switch f := stack[i].(type) {
		case *ast.FuncLit:
			if v.Pos() >= f.Type.Pos() && v.Pos() < f.Body.End() {
				return f.Body, false
			}
		case *ast.FuncDecl:
			if f.Body != nil && v.Pos() >= f.Type.Pos() && v.Pos() < f.Body.End() {
				return f.Body, transientFunc(pass, stack[:i+1])
			}
		}
	}
	return nil, false
}

// inClosure reports whether n lies inside a function literal in body.
func inClosure(body *ast.BlockStmt, n ast.Node) bool {
	in := false
	ast.Inspect(body, func(m ast.Node) bool {
		if lit, ok := m.(*ast.FuncLit); ok && lit.Pos() <= n.Pos() && n.End() <= lit.End() {
			in = true
		}
		return !in
	})
	return in
}

// checkNoRetention taints seed inside body, propagates through
// alias-producing assignments, and reports escapes. mayReturn exempts the
// returns of body's own function, one carrying the directive.
func checkNoRetention(pass *lint.Pass, body *ast.BlockStmt, seed *types.Var, what, contract string, mayReturn bool) {
	tainted := map[types.Object]bool{seed: true}

	// Fixpoint alias propagation: x := <expr mentioning tainted via
	// selector/index/slice/ident chains, no calls> taints x.
	for changed := true; changed; {
		changed = false
		ast.Inspect(body, func(n ast.Node) bool {
			as, ok := n.(*ast.AssignStmt)
			if !ok {
				return true
			}
			for i, l := range as.Lhs {
				if i >= len(as.Rhs) {
					break
				}
				id, ok := l.(*ast.Ident)
				if !ok {
					continue
				}
				obj := pass.TypesInfo.ObjectOf(id)
				if obj == nil || tainted[obj] {
					continue
				}
				if aliases(pass, as.Rhs[i], tainted) {
					tainted[obj] = true
					changed = true
				}
			}
			return true
		})
	}

	isTainted := func(e ast.Expr) bool { return aliases(pass, e, tainted) }

	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for i, l := range n.Lhs {
				if i >= len(n.Rhs) || !isTainted(n.Rhs[i]) {
					continue
				}
				if storesOutside(pass, l) {
					pass.Reportf(n.Pos(), "%s is stored outside the call frame: %s", what, contract)
				}
			}
		case *ast.SendStmt:
			if isTainted(n.Value) {
				pass.Reportf(n.Pos(), "%s is sent on a channel: %s", what, contract)
			}
		case *ast.ReturnStmt:
			if mayReturn && !inClosure(body, n) {
				break
			}
			for _, r := range n.Results {
				if isTainted(r) {
					pass.Reportf(n.Pos(), "%s is returned: %s", what, contract)
				}
			}
		case *ast.GoStmt:
			for _, id := range identsIn(n.Call) {
				if obj := pass.TypesInfo.Uses[id]; obj != nil && tainted[obj] {
					pass.Reportf(n.Pos(), "%s is captured by a goroutine that may outlive the call: %s", what, contract)
					break
				}
			}
		case *ast.CallExpr:
			// Handing a tainted slice to a cache write without copying —
			// directly, or inside a row view or filler built in the
			// argument — publishes arena memory under a stable key.
			if sel, ok := n.Fun.(*ast.SelectorExpr); ok && cacheWrites[sel.Sel.Name] {
				for _, a := range n.Args {
					if holdsTainted(a, isTainted) {
						pass.Reportf(n.Pos(), "%s is stored in a cache without a copy: %s", what, contract)
					}
				}
			}
		}
		return true
	})
}

// cacheWrites are the VecCache methods that store what they are handed:
// PutVec a vector, PutRows a row view's rows, FillRows its filler's rows.
var cacheWrites = map[string]bool{"PutVec": true, "PutRows": true, "FillRows": true}

// holdsTainted reports whether the argument e is tainted or is a composite
// literal, or its address, with a tainted element.
func holdsTainted(e ast.Expr, isTainted func(ast.Expr) bool) bool {
	switch e := ast.Unparen(e).(type) {
	case *ast.CompositeLit:
		for _, el := range e.Elts {
			if kv, ok := el.(*ast.KeyValueExpr); ok {
				el = kv.Value
			}
			if holdsTainted(el, isTainted) {
				return true
			}
		}
		return false
	case *ast.UnaryExpr:
		if _, ok := ast.Unparen(e.X).(*ast.CompositeLit); ok {
			return holdsTainted(e.X, isTainted)
		}
	}
	return isTainted(e)
}

// aliases reports whether e is an alias-producing expression rooted at a
// tainted object: a tainted ident, or selector/index/slice chains over
// one. Call results are fresh (Decode, Clone, append-copy idioms), so a
// call boundary stops the taint.
func aliases(pass *lint.Pass, e ast.Expr, tainted map[types.Object]bool) bool {
	switch e := e.(type) {
	case *ast.Ident:
		obj := pass.TypesInfo.Uses[e]
		return obj != nil && tainted[obj]
	case *ast.ParenExpr:
		return aliases(pass, e.X, tainted)
	case *ast.SelectorExpr:
		return aliases(pass, e.X, tainted)
	case *ast.IndexExpr:
		return aliases(pass, e.X, tainted)
	case *ast.SliceExpr:
		return aliases(pass, e.X, tainted)
	case *ast.StarExpr:
		return aliases(pass, e.X, tainted)
	case *ast.UnaryExpr:
		return aliases(pass, e.X, tainted)
	default:
		return false
	}
}

// storesOutside reports whether the assignment target l outlives the
// function frame: a field selector, a dereference, an index into
// anything non-local, or a package-level variable.
func storesOutside(pass *lint.Pass, l ast.Expr) bool {
	switch l := l.(type) {
	case *ast.Ident:
		v, ok := pass.TypesInfo.ObjectOf(l).(*types.Var)
		return ok && !isLocalVar(v)
	case *ast.SelectorExpr, *ast.StarExpr:
		return true
	case *ast.IndexExpr:
		// Indexing a local slice keeps the value local only if the
		// slice itself is local and untainted; be conservative for
		// non-ident bases.
		if id, ok := ast.Unparen(l.X).(*ast.Ident); ok {
			v, ok := pass.TypesInfo.ObjectOf(id).(*types.Var)
			return !ok || !isLocalVar(v)
		}
		return true
	default:
		return false
	}
}

// isLocalVar reports whether v is function-scoped (not a package-level
// variable or a struct field).
func isLocalVar(v *types.Var) bool {
	if v.IsField() {
		return false
	}
	scope := v.Parent()
	if scope == nil || v.Pkg() == nil {
		return false
	}
	return scope != v.Pkg().Scope()
}

func batchParam(pass *lint.Pass, fd *ast.FuncDecl) *types.Var {
	fn, ok := pass.TypesInfo.Defs[fd.Name].(*types.Func)
	if !ok {
		return nil
	}
	sig := fn.Type().(*types.Signature)
	for i := 0; i < sig.Params().Len(); i++ {
		p := sig.Params().At(i)
		if dmtpkg.IsNamed(p.Type(), "data", "Batch") {
			return p
		}
	}
	return nil
}

func calleeFunc(pass *lint.Pass, call *ast.CallExpr) *types.Func {
	switch f := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		fn, _ := pass.TypesInfo.Uses[f].(*types.Func)
		return fn
	case *ast.SelectorExpr:
		fn, _ := pass.TypesInfo.Uses[f.Sel].(*types.Func)
		return fn
	}
	return nil
}

func parentNonParen(stack []ast.Node) ast.Node {
	for i := len(stack) - 2; i >= 0; i-- {
		if _, ok := stack[i].(*ast.ParenExpr); ok {
			continue
		}
		return stack[i]
	}
	return nil
}

func identsIn(n ast.Node) []*ast.Ident {
	var out []*ast.Ident
	ast.Inspect(n, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok {
			out = append(out, id)
		}
		return true
	})
	return out
}
