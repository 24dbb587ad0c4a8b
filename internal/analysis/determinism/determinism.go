// Package determinism defines an analyzer that keeps wall-clock time,
// the global math/rand source, and observable map-iteration order out of
// the packages on the deterministic virtual-clock path.
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
//   - ranging over a map when the loop body's effects depend on
//     visitation order: float accumulation, appends that feed output
//     unsorted, sends, or any call with side effects.
//
// Map iteration is only reported when the body is order-SENSITIVE. The
// analyzer proves a body harmless when its effects commute exactly:
// stores into other maps, integer/bitwise accumulation, max/min guards
// that compare the assigned variable, constant flag-sets with early
// exit, appends of the loop key into a slice that the same function
// passes to sort/slices.Sort, and arbitrary writes to variables that do
// not outlive the iteration. Everything else — notably floating-point
// accumulation, which does not commute — is flagged.
//
// Test files are exempt: measuring wall time around a run is how the
// benchmarks work, and test-local iteration order does not feed wire
// traffic or trajectories.
//
// # Suppression
//
//	last := time.Now() //dmt:nondeterministic-ok wall-clock stats only, never read in latency mode
//
// The reason is mandatory; a bare marker is itself reported.
package determinism

import (
	"go/ast"
	"go/token"
	"go/types"

	"dmt/internal/analysis/directive"
	"dmt/internal/analysis/dmtpkg"
	"dmt/internal/analysis/lint"
)

// Marker is the suppression directive, without the leading "//".
const Marker = "dmt:nondeterministic-ok"

// Analyzer forbids wall-clock time, global math/rand, and order-sensitive
// map iteration on the virtual-clock path.
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

func run(pass *lint.Pass) {
	if !dmtpkg.OnVirtualClockPath(pass.Pkg.Path()) {
		return
	}
	supp := directive.New(pass, Marker)
	for _, f := range pass.Files {
		if dmtpkg.IsTestFile(pass.Fset, f) {
			continue
		}
		lint.WithStack(f, func(n ast.Node, stack []ast.Node) bool {
			switch n := n.(type) {
			case *ast.CallExpr:
				checkCall(pass, supp, n)
			case *ast.RangeStmt:
				checkMapRange(pass, supp, n, stack)
			}
			return true
		})
	}
}

func checkCall(pass *lint.Pass, supp *directive.Index, call *ast.CallExpr) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return
	}
	fn, ok := pass.TypesInfo.ObjectOf(sel.Sel).(*types.Func)
	if ok && fn.Pkg() != nil && fn.Type().(*types.Signature).Recv() == nil {
		switch fn.Pkg().Path() {
		case "time":
			if forbiddenTime[fn.Name()] {
				supp.Report(call.Pos(), "time.%s reads the wall clock in a virtual-clock package: use the group's Clock (or annotate //%s <reason> for wall-clock-only stats)", fn.Name(), Marker)
			}
		case "math/rand", "math/rand/v2":
			if !allowedRand[fn.Name()] {
				supp.Report(call.Pos(), "rand.%s draws from the process-global source: use an explicitly seeded rand.New(rand.NewSource(seed))", fn.Name())
			}
		}
	}
}

func checkMapRange(pass *lint.Pass, supp *directive.Index, rng *ast.RangeStmt, stack []ast.Node) {
	t, ok := pass.TypesInfo.Types[rng.X]
	if !ok {
		return
	}
	if _, isMap := t.Type.Underlying().(*types.Map); !isMap {
		return
	}
	c := &classifier{pass: pass, locals: map[types.Object]bool{}, fnBody: enclosingBody(stack)}
	c.defineLoopVars(rng)
	if c.block(rng.Body.List, nil) != nil {
		supp.Report(rng.Pos(), "map iteration order is observable: %s; iterate sorted keys or annotate //%s <reason>", c.why, Marker)
	}
}

// classifier decides whether a map-range body's effects commute. locals
// is the set of variables that do not outlive one iteration — writes to
// them cannot leak visitation order.
type classifier struct {
	pass   *lint.Pass
	locals map[types.Object]bool
	fnBody *ast.BlockStmt
	why    string
}

func (c *classifier) defineLoopVars(rng *ast.RangeStmt) {
	for _, e := range []ast.Expr{rng.Key, rng.Value} {
		if id, ok := e.(*ast.Ident); ok && id.Name != "_" {
			if obj := c.pass.TypesInfo.Defs[id]; obj != nil {
				c.locals[obj] = true
			}
		}
	}
}

// block returns the first order-sensitive statement, or nil if all
// effects commute. condIdents carries the objects compared by enclosing
// if-conditions (enabling max/min update patterns).
func (c *classifier) block(stmts []ast.Stmt, condIdents map[types.Object]bool) ast.Stmt {
	for _, s := range stmts {
		if bad := c.stmt(s, condIdents); bad != nil {
			return bad
		}
	}
	return nil
}

func (c *classifier) fail(s ast.Stmt, why string) ast.Stmt {
	if c.why == "" {
		c.why = why + " (at " + c.pass.Fset.Position(s.Pos()).String() + ")"
	}
	return s
}

func (c *classifier) stmt(s ast.Stmt, cond map[types.Object]bool) ast.Stmt {
	switch s := s.(type) {
	case *ast.AssignStmt:
		return c.assign(s, cond)
	case *ast.IncDecStmt:
		if c.isLocal(s.X) || isInteger(c.pass, s.X) {
			return nil
		}
		return c.fail(s, "increment of a non-integer accumulator")
	case *ast.IfStmt:
		if s.Init != nil {
			if bad := c.stmt(s.Init, cond); bad != nil {
				return bad
			}
		}
		if !c.pure(s.Cond) {
			return c.fail(s, "condition with side effects")
		}
		sub := map[types.Object]bool{}
		for o := range cond {
			sub[o] = true
		}
		for _, id := range identsIn(s.Cond) {
			if obj := c.pass.TypesInfo.Uses[id]; obj != nil {
				sub[obj] = true
			}
		}
		if bad := c.block(s.Body.List, sub); bad != nil {
			return bad
		}
		if s.Else != nil {
			return c.stmt(s.Else, sub)
		}
		return nil
	case *ast.BlockStmt:
		return c.block(s.List, cond)
	case *ast.RangeStmt:
		// A nested map range is reported on its own visit; classify the
		// nested body either way so its effects still count here.
		if !c.pure(s.X) {
			return c.fail(s, "ranging over an impure expression")
		}
		c.defineLoopVars(s)
		return c.block(s.Body.List, cond)
	case *ast.ForStmt:
		if s.Init != nil {
			if bad := c.stmt(s.Init, cond); bad != nil {
				return bad
			}
		}
		if s.Cond != nil && !c.pure(s.Cond) {
			return c.fail(s, "loop condition with side effects")
		}
		if s.Post != nil {
			if bad := c.stmt(s.Post, cond); bad != nil {
				return bad
			}
		}
		return c.block(s.Body.List, cond)
	case *ast.BranchStmt:
		return nil // continue/break/goto-to-label change only which keys run
	case *ast.ReturnStmt:
		for _, r := range s.Results {
			if !c.constant(r) {
				return c.fail(s, "early return of a non-constant value")
			}
		}
		return nil
	case *ast.DeclStmt:
		gd, ok := s.Decl.(*ast.GenDecl)
		if !ok {
			return c.fail(s, "declaration")
		}
		for _, spec := range gd.Specs {
			vs, ok := spec.(*ast.ValueSpec)
			if !ok {
				continue
			}
			for _, name := range vs.Names {
				if obj := c.pass.TypesInfo.Defs[name]; obj != nil {
					c.locals[obj] = true
				}
			}
			for _, v := range vs.Values {
				if !c.pure(v) {
					return c.fail(s, "declaration with side effects")
				}
			}
		}
		return nil
	case *ast.ExprStmt:
		if call, ok := s.X.(*ast.CallExpr); ok {
			// delete removes distinct keys: commutative.
			if isBuiltin(c.pass, call.Fun, "delete") {
				for _, a := range call.Args {
					if !c.pure(a) {
						return c.fail(s, "impure delete argument")
					}
				}
				return nil
			}
			// A dup-guard panic fires (or not) regardless of visitation
			// order; the process dies either way.
			if id, ok := call.Fun.(*ast.Ident); ok && id.Name == "panic" {
				if _, isBuiltin := c.pass.TypesInfo.ObjectOf(id).(*types.Builtin); isBuiltin {
					return nil
				}
			}
		}
		return c.fail(s, "a call whose effects may depend on visitation order")
	case *ast.SwitchStmt:
		if s.Init != nil {
			if bad := c.stmt(s.Init, cond); bad != nil {
				return bad
			}
		}
		if s.Tag != nil && !c.pure(s.Tag) {
			return c.fail(s, "switch tag with side effects")
		}
		for _, cc := range s.Body.List {
			if bad := c.block(cc.(*ast.CaseClause).Body, cond); bad != nil {
				return bad
			}
		}
		return nil
	default:
		return c.fail(s, "a statement the analyzer cannot prove order-insensitive")
	}
}

func (c *classifier) assign(s *ast.AssignStmt, cond map[types.Object]bool) ast.Stmt {
	if s.Tok == token.DEFINE {
		for _, l := range s.Lhs {
			if id, ok := l.(*ast.Ident); ok {
				if obj := c.pass.TypesInfo.Defs[id]; obj != nil {
					c.locals[obj] = true
				}
			}
		}
		for _, r := range s.Rhs {
			if !c.pure(r) {
				return c.fail(s, "definition with side effects")
			}
		}
		return nil
	}
	// Compound integer accumulation commutes exactly.
	switch s.Tok {
	case token.ADD_ASSIGN, token.OR_ASSIGN, token.AND_ASSIGN, token.XOR_ASSIGN, token.MUL_ASSIGN:
		l := s.Lhs[0]
		if !c.pure(s.Rhs[0]) {
			return c.fail(s, "accumulation with side effects")
		}
		if c.isLocal(l) || isInteger(c.pass, l) {
			return nil
		}
		return c.fail(s, "floating-point (or otherwise non-commutative) accumulation")
	case token.ASSIGN:
		for i, l := range s.Lhs {
			var r ast.Expr
			if i < len(s.Rhs) {
				r = s.Rhs[i]
			}
			if bad := c.plainAssign(s, l, r, cond); bad != nil {
				return bad
			}
		}
		return nil
	default:
		return c.fail(s, "a non-commutative compound assignment")
	}
}

func (c *classifier) plainAssign(s *ast.AssignStmt, l, r ast.Expr, cond map[types.Object]bool) ast.Stmt {
	if r != nil && !c.pureOrAppend(l, r) {
		return c.fail(s, "assignment with side effects")
	}
	switch lhs := l.(type) {
	case *ast.Ident:
		if lhs.Name == "_" || c.isLocal(lhs) {
			return nil
		}
		obj := c.pass.TypesInfo.Uses[lhs]
		// Max/min-style update: the guard compares the assigned variable.
		if cond[obj] {
			return nil
		}
		// Setting a flag (or any constant) commutes: every visitation
		// order writes the same value.
		if r != nil && c.constant(r) {
			return nil
		}
		// s = append(s, key...) with a later sort over s.
		if r != nil && c.sortedAppend(lhs, r) {
			return nil
		}
		return c.fail(s, "order-dependent write to a variable that outlives the loop")
	case *ast.IndexExpr:
		t, ok := c.pass.TypesInfo.Types[lhs.X]
		if ok {
			if _, isMap := t.Type.Underlying().(*types.Map); isMap {
				return nil // distinct keys land in distinct entries
			}
		}
		// Indexed store keyed (directly or derived) by iteration-local
		// values: distinct iterations hit distinct slots.
		for _, id := range identsIn(lhs.Index) {
			if obj := c.pass.TypesInfo.Uses[id]; obj != nil && c.locals[obj] {
				return nil
			}
		}
		return c.fail(s, "indexed store whose slot does not depend on the loop variables")
	default:
		return c.fail(s, "a store the analyzer cannot prove order-insensitive")
	}
}

// sortedAppend recognizes `s = append(s, ...)` where the enclosing
// function later sorts s.
func (c *classifier) sortedAppend(lhs *ast.Ident, r ast.Expr) bool {
	call, ok := r.(*ast.CallExpr)
	if !ok || !isBuiltin(c.pass, call.Fun, "append") || len(call.Args) == 0 {
		return false
	}
	first, ok := call.Args[0].(*ast.Ident)
	if !ok || c.pass.TypesInfo.Uses[first] != c.pass.TypesInfo.Uses[lhs] {
		return false
	}
	obj := c.pass.TypesInfo.Uses[lhs]
	if obj == nil || c.fnBody == nil {
		return false
	}
	sorted := false
	ast.Inspect(c.fnBody, func(n ast.Node) bool {
		sc, ok := n.(*ast.CallExpr)
		if !ok || sorted {
			return !sorted
		}
		sel, ok := sc.Fun.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		pkg, ok := sel.X.(*ast.Ident)
		if !ok || (pkg.Name != "sort" && pkg.Name != "slices") {
			return true
		}
		for _, a := range sc.Args {
			if id, ok := a.(*ast.Ident); ok && c.pass.TypesInfo.Uses[id] == obj {
				sorted = true
			}
		}
		return true
	})
	return sorted
}

func (c *classifier) isLocal(e ast.Expr) bool {
	id, ok := e.(*ast.Ident)
	if !ok {
		return false
	}
	obj := c.pass.TypesInfo.Uses[id]
	return obj != nil && c.locals[obj]
}

// pure reports whether evaluating e has no side effects: no calls except
// len/cap/min/max/abs-style pure builtins and type conversions.
func (c *classifier) pure(e ast.Expr) bool {
	pure := true
	ast.Inspect(e, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return pure
		}
		if tv, ok := c.pass.TypesInfo.Types[call.Fun]; ok && tv.IsType() {
			return true // conversion
		}
		for _, name := range []string{"len", "cap", "min", "max", "make", "new", "real", "imag"} {
			if isBuiltin(c.pass, call.Fun, name) {
				return true
			}
		}
		pure = false
		return false
	})
	return pure
}

// pureOrAppend is pure, additionally allowing a top-level append (the
// append itself is effect-free; whether its target may absorb
// order-dependent contents is judged by the caller).
func (c *classifier) pureOrAppend(l, r ast.Expr) bool {
	if call, ok := r.(*ast.CallExpr); ok && isBuiltin(c.pass, call.Fun, "append") {
		for _, a := range call.Args {
			if !c.pure(a) {
				return false
			}
		}
		return true
	}
	_ = l
	return c.pure(r)
}

func (c *classifier) constant(e ast.Expr) bool {
	if tv, ok := c.pass.TypesInfo.Types[e]; ok {
		if tv.Value != nil || tv.IsNil() {
			return true
		}
	}
	return false
}

func isInteger(pass *lint.Pass, e ast.Expr) bool {
	tv, ok := pass.TypesInfo.Types[e]
	if !ok || tv.Type == nil {
		return false
	}
	b, ok := tv.Type.Underlying().(*types.Basic)
	return ok && b.Info()&(types.IsInteger|types.IsBoolean) != 0
}

func isBuiltin(pass *lint.Pass, fun ast.Expr, name string) bool {
	id, ok := fun.(*ast.Ident)
	if !ok || id.Name != name {
		return false
	}
	_, ok = pass.TypesInfo.ObjectOf(id).(*types.Builtin)
	return ok
}

func identsIn(e ast.Expr) []*ast.Ident {
	var out []*ast.Ident
	ast.Inspect(e, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok {
			out = append(out, id)
		}
		return true
	})
	return out
}

func enclosingBody(stack []ast.Node) *ast.BlockStmt {
	for i := len(stack) - 1; i >= 0; i-- {
		switch f := stack[i].(type) {
		case *ast.FuncLit:
			return f.Body
		case *ast.FuncDecl:
			return f.Body
		}
	}
	return nil
}
