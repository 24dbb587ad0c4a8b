// Package handles defines the analyzers that check dmt's must-discharge
// handles, one row of a table each. Every row states one invariant: a
// handle acquired in a function reaches a discharging method, or an
// ownership transfer (stored, sent, passed on, returned, captured by a
// closure: the new holder owns the obligation), on every control-flow
// path to the return. Package flow walks the paths; a row names the
// handle, how it is acquired and discharged, and what a finding reads.
//
//   - pendingwait: a comm.Pending from a non-blocking collective
//     (IAllGatherBatch, IAlltoAllBatchEnc, ...) holds its rank's mailbox
//     order open. One never Wait()ed or Carry()ed leaves payloads queued
//     in peer mailboxes for the group's next collective to misread, which
//     the runtime catches only late (checkIdle, AssertDrained) and only
//     on executions that reach those guards. Test files are checked too.
package handles

import (
	"go/ast"
	"go/types"
	"slices"

	"dmt/internal/analysis/dmtpkg"
	"dmt/internal/analysis/flow"
	"dmt/internal/analysis/lint"
)

// A row is one handle the table checks, and one analyzer.
type row struct {
	name      string
	pkg, typ  string   // the handle is (a pointer to) internal/<pkg>.<typ>
	discharge []string // the handle's methods that discharge it
	// The findings' formats: a handle dropped at birth (from), consumed at
	// birth by a method that does not discharge it (from, method), or
	// bound to a variable that may reach a return open (name, from).
	dropped, consumed, leaks string
}

var rows = []row{{
	name: "pendingwait", pkg: "comm", typ: "Pending", discharge: []string{"Wait", "Carry"},
	dropped:  "comm.Pending from %s is dropped without Wait or Carry: the handle leaks and the next collective on the group will panic or misdeliver",
	consumed: "comm.Pending from %s is consumed by %s without Wait or Carry",
	leaks:    "comm.Pending %q from %s may reach a return without Wait or Carry",
}}

// Analyzers returns one analyzer per row of the table, in row order.
func Analyzers() []*lint.Analyzer {
	out := make([]*lint.Analyzer, len(rows))
	for i := range rows {
		out[i] = &lint.Analyzer{Name: rows[i].name, Run: rows[i].run}
	}
	return out
}

func (r *row) is(t types.Type) bool { return dmtpkg.IsNamed(t, r.pkg, r.typ) }

// classify: every other method (Ticket, ...) reads the handle but leaves
// its obligation open.
func (r *row) classify(method string) flow.Class {
	if slices.Contains(r.discharge, method) {
		return flow.Satisfy
	}
	return flow.Neutral
}

func (r *row) run(pass *lint.Pass) {
	for _, f := range pass.Files {
		lint.WithStack(f, func(n ast.Node, stack []ast.Node) bool {
			// A call returning a handle acquires one, unless it is a
			// method of a handle: those return derived values or the
			// receiver, never a fresh handle.
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			if sel, ok := call.Fun.(*ast.SelectorExpr); ok && r.is(pass.TypesInfo.Types[sel.X].Type) {
				return true
			}
			if r.is(pass.TypesInfo.Types[call].Type) {
				r.check(pass, call, stack, callName(call))
			}
			return true
		})
	}
}

// check reports the handle acquired at n, stack's last node, if some path
// leaves it open; from names where it came from.
func (r *row) check(pass *lint.Pass, n ast.Node, stack []ast.Node, from string) {
	binding, id, bindStmt, method := flow.Bind(stack)
	switch binding {
	case flow.BindDiscard, flow.BindBlank:
		pass.Reportf(n.Pos(), r.dropped, from)
	case flow.BindRecv:
		if r.classify(method) != flow.Satisfy {
			pass.Reportf(n.Pos(), r.consumed, from, method)
		}
	case flow.BindVar:
		v, _ := pass.TypesInfo.ObjectOf(id).(*types.Var)
		if v == nil {
			return
		}
		tr := &flow.Tracker{
			Info:           pass.TypesInfo,
			Var:            v,
			Creation:       bindStmt,
			ClassifyMethod: r.classify,
		}
		if _, leaks := flow.Leaks(pass.CFGs.Enclosing(stack), tr); leaks {
			pass.Reportf(n.Pos(), r.leaks, id.Name, from)
		}
	}
}

// callName names a call's callee, a generic one by its name too.
func callName(call *ast.CallExpr) string {
	switch f := call.Fun.(type) {
	case *ast.SelectorExpr:
		return f.Sel.Name
	case *ast.Ident:
		return f.Name
	case *ast.IndexExpr:
		if id, ok := f.X.(*ast.Ident); ok {
			return id.Name
		}
	}
	return "call"
}
