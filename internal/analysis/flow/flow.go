// Package flow is the may-leak dataflow engine behind the rows of package
// handles' table.
//
// Every row has the same shape: some expression ACQUIRES a resource (an
// in-flight comm.Pending) that must, on every control-flow path to the
// function's return, either reach a SATISFYING call (Wait/Carry) or be
// TRANSFERRED to other code that assumes the obligation (stored, passed as
// an argument, returned, captured by a closure). The engine walks the function's control-flow
// graph from the acquisition site and reports whether any path reaches a
// return with the obligation still open.
//
// The analysis is deliberately intraprocedural and quiet: any use it does
// not positively recognize counts as a transfer, so complex code gets the
// benefit of the doubt and the diagnostics that remain are high-confidence.
// Paths that end in panic are not reported — the comm runtime cancels the
// group when a rank panics, so nothing is leaked.
package flow

import (
	"go/ast"
	"go/token"
	"go/types"
)

// Class is the effect one CFG node has on the tracked obligation.
type Class int

const (
	// Neutral: the node does not discharge or move the obligation.
	Neutral Class = iota
	// Satisfy: the obligation is discharged on this path.
	Satisfy
	// Transfer: ownership moved to code outside this function's view.
	Transfer
	// Kill: the variable is overwritten while the obligation is open —
	// itself a leak of the old value.
	Kill
)

// Tracker configures one acquisition to check.
type Tracker struct {
	Info *types.Info
	// Var is the local the acquired value is bound to.
	Var *types.Var
	// Creation is the statement binding the value (an *ast.AssignStmt or
	// *ast.ValueSpec). Scanning starts just after it; reaching it again
	// around a loop means the old value was overwritten unsatisfied.
	Creation ast.Node
	// ClassifyMethod classifies a method call on Var by name.
	ClassifyMethod func(name string) Class
}

// Leaks reports whether some path from the creation to a normal function
// return neither satisfies nor transfers the obligation. It returns the
// position of the return that ends the first leaking path found.
func Leaks(g *CFG, t *Tracker) (token.Pos, bool) {
	if g == nil {
		return token.NoPos, false
	}
	// A defer that satisfies or transfers covers every path at once. And
	// any transfer anywhere in the function quiets the tracker entirely:
	// once the value has been handed to other code (a send inside a
	// fan-out loop, a store into an arena), path-sensitive reasoning
	// about who still owns the obligation is beyond an intraprocedural
	// check, and a wrong report costs more than a missed one.
	for _, b := range g.Blocks {
		for _, n := range b.Nodes {
			if n == t.Creation {
				continue
			}
			switch t.classify(n) {
			case Transfer:
				return token.NoPos, false
			case Satisfy:
				if _, ok := n.(*ast.DeferStmt); ok {
					return token.NoPos, false
				}
			}
		}
	}
	home, idx := findNode(g, t.Creation)
	if home == nil {
		return token.NoPos, false
	}
	// Scan the rest of the creation's own block first. If it is also a
	// terminal block (straight-line function), its materialized return
	// decides the path right here.
	if pos, done, leak := t.scan(home, idx+1); done {
		return pos, leak
	}
	if len(home.Succs) == 0 {
		if ret := returnEnd(home); ret != nil {
			return ret.Pos(), true
		}
		return token.NoPos, false
	}
	visited := make(map[*Block]bool)
	var walk func(b *Block) (token.Pos, bool)
	walk = func(b *Block) (token.Pos, bool) {
		if visited[b] {
			return token.NoPos, false
		}
		visited[b] = true
		if pos, done, leak := t.scan(b, 0); done {
			if leak {
				return pos, true
			}
			return token.NoPos, false
		}
		if len(b.Succs) == 0 {
			// Only a materialized return is a leak; a panic or
			// unreachable tail discharges nothing but leaks nothing the
			// runtime won't reclaim when it tears the group down.
			if ret := returnEnd(b); ret != nil {
				return ret.Pos(), true
			}
			return token.NoPos, false
		}
		for i, s := range b.Succs {
			if t.prunedNilBranch(b, i) {
				continue
			}
			if pos, leak := walk(s); leak {
				return pos, leak
			}
		}
		return token.NoPos, false
	}
	for i, s := range home.Succs {
		if t.prunedNilBranch(home, i) {
			continue
		}
		if pos, leak := walk(s); leak {
			return pos, leak
		}
	}
	return token.NoPos, false
}

// scan classifies b.Nodes[from:]. done=true means the path was decided in
// this block: either discharged (leak=false) or killed (leak=true, at pos).
func (t *Tracker) scan(b *Block, from int) (pos token.Pos, done, leak bool) {
	for _, n := range b.Nodes[from:] {
		if n == t.Creation {
			// Looped back to the acquisition with the obligation open.
			return n.Pos(), true, true
		}
		switch t.classify(n) {
		case Satisfy, Transfer:
			return token.NoPos, true, false
		case Kill:
			return n.Pos(), true, true
		}
	}
	return token.NoPos, false, false
}

// classify computes the strongest effect of one CFG node on the tracked
// variable: Satisfy > Kill > Transfer > Neutral.
func (t *Tracker) classify(node ast.Node) Class {
	best := Neutral
	upgrade := func(c Class) {
		switch c {
		case Satisfy:
			best = Satisfy
		case Kill:
			if best != Satisfy {
				best = Kill
			}
		case Transfer:
			if best == Neutral {
				best = Transfer
			}
		}
	}
	var stack []ast.Node
	ast.Inspect(node, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		stack = append(stack, n)
		id, ok := n.(*ast.Ident)
		if !ok || !t.isVar(id) {
			return true
		}
		upgrade(t.classifyUse(stack))
		return true
	})
	return best
}

func (t *Tracker) isVar(id *ast.Ident) bool {
	return t.Info.Uses[id] == t.Var || t.Info.Defs[id] == t.Var
}

// classifyUse classifies one identifier occurrence given its ancestor
// stack (stack[len(stack)-1] is the ident itself).
func (t *Tracker) classifyUse(stack []ast.Node) Class {
	// A use inside any function literal escapes to the closure.
	for _, a := range stack[:len(stack)-1] {
		if _, ok := a.(*ast.FuncLit); ok {
			return Transfer
		}
	}
	parent := parentOf(stack, 1)
	switch p := parent.(type) {
	case *ast.SelectorExpr:
		// v.M(...): classified by method name when it is really a call.
		if call, ok := parentOf(stack, 2).(*ast.CallExpr); ok && call.Fun == p {
			return t.ClassifyMethod(p.Sel.Name)
		}
		return Transfer
	case *ast.BinaryExpr:
		// v == nil / v != nil guards are reads, not moves.
		if (p.Op == token.EQL || p.Op == token.NEQ) && (isNil(t.Info, p.X) || isNil(t.Info, p.Y)) {
			return Neutral
		}
		return Transfer
	case *ast.AssignStmt:
		id := stack[len(stack)-1].(*ast.Ident)
		for _, lhs := range p.Lhs {
			if lhs == id {
				return Kill
			}
		}
		return Transfer
	case *ast.ValueSpec:
		for _, name := range p.Names {
			if name == stack[len(stack)-1] {
				return Kill
			}
		}
		return Transfer
	default:
		// Argument position, return, composite literal, index, send,
		// &v, ... — ownership positively moves or we stay quiet.
		return Transfer
	}
}

// prunedNilBranch prunes the successor on which the tracked variable is
// statically nil: a block ending in `v == nil` or `v != nil` with two
// successors (then, else) has one arm where v is nil and there is nothing
// to discharge.
func (t *Tracker) prunedNilBranch(b *Block, succ int) bool {
	if len(b.Succs) != 2 || len(b.Nodes) == 0 {
		return false
	}
	cond, ok := b.Nodes[len(b.Nodes)-1].(*ast.BinaryExpr)
	if !ok || (cond.Op != token.EQL && cond.Op != token.NEQ) {
		return false
	}
	var other ast.Expr
	switch {
	case isNil(t.Info, cond.X):
		other = cond.Y
	case isNil(t.Info, cond.Y):
		other = cond.X
	default:
		return false
	}
	id, ok := other.(*ast.Ident)
	if !ok || !t.isVar(id) {
		return false
	}
	// Succs[0] is the true branch, Succs[1] the false branch.
	nilBranch := 0
	if cond.Op == token.NEQ {
		nilBranch = 1
	}
	return succ == nilBranch
}

func isNil(info *types.Info, e ast.Expr) bool {
	id, ok := e.(*ast.Ident)
	if !ok {
		return false
	}
	_, isNilObj := info.ObjectOf(id).(*types.Nil)
	return isNilObj
}

// parentOf returns the n-th ancestor of the stack's last element.
func parentOf(stack []ast.Node, n int) ast.Node {
	i := len(stack) - 1 - n
	// Skip over parens.
	for i >= 0 {
		if _, ok := stack[i].(*ast.ParenExpr); ok {
			i--
			continue
		}
		return stack[i]
	}
	return nil
}

func findNode(g *CFG, target ast.Node) (*Block, int) {
	for _, b := range g.Blocks {
		for i, n := range b.Nodes {
			if n == target {
				return b, i
			}
		}
	}
	return nil, 0
}

func returnEnd(b *Block) ast.Node {
	if len(b.Nodes) == 0 {
		return nil
	}
	if r, ok := b.Nodes[len(b.Nodes)-1].(*ast.ReturnStmt); ok {
		return r
	}
	return nil
}

// Binding describes how an acquisition expression is consumed by its
// enclosing statement.
type Binding int

const (
	// BindDiscard: the value is dropped on the floor (expression statement).
	BindDiscard Binding = iota
	// BindBlank: assigned to _, equally dropped.
	BindBlank
	// BindVar: bound to a trackable local variable.
	BindVar
	// BindRecv: immediately used as a method receiver; MethodName is set.
	BindRecv
	// BindEscape: stored, passed, returned — ownership transfers at birth.
	BindEscape
)

// Bind classifies the acquisition at stack[len(stack)-1] (a call or type
// assertion) by its parent context. For BindVar it returns the bound
// identifier and the statement to start flow analysis from; for BindRecv
// the consuming method's name.
func Bind(stack []ast.Node) (b Binding, bound *ast.Ident, stmt ast.Node, method string) {
	parent := parentOf(stack, 1)
	switch p := parent.(type) {
	case *ast.ExprStmt:
		return BindDiscard, nil, nil, ""
	case *ast.AssignStmt:
		expr := stack[len(stack)-1].(ast.Expr)
		for i, rhs := range p.Rhs {
			if ast.Unparen(rhs) != expr || i >= len(p.Lhs) {
				continue
			}
			if id, ok := p.Lhs[i].(*ast.Ident); ok {
				if id.Name == "_" {
					return BindBlank, nil, nil, ""
				}
				return BindVar, id, p, ""
			}
			return BindEscape, nil, nil, ""
		}
		return BindEscape, nil, nil, ""
	case *ast.ValueSpec:
		expr := stack[len(stack)-1].(ast.Expr)
		for i, rhs := range p.Values {
			if ast.Unparen(rhs) == expr && i < len(p.Names) {
				if p.Names[i].Name == "_" {
					return BindBlank, nil, nil, ""
				}
				return BindVar, p.Names[i], p, ""
			}
		}
		return BindEscape, nil, nil, ""
	case *ast.SelectorExpr:
		if call, ok := parentOf(stack, 2).(*ast.CallExpr); ok && call.Fun == p {
			return BindRecv, nil, nil, p.Sel.Name
		}
		return BindEscape, nil, nil, ""
	default:
		return BindEscape, nil, nil, ""
	}
}
