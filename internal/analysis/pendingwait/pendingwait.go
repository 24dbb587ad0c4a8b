// Package pendingwait defines an analyzer that checks that every
// comm.Pending handle is waited, carried, or handed off on all paths.
//
// # Invariant
//
// A comm.Pending returned by a non-blocking collective (IAllGatherBatch,
// IAlltoAllTensorsQ, ...) is an open obligation on its rank's mailbox
// ordering: handles must be waited in issue order, and a handle that is
// never Wait()ed leaves payloads queued in peer mailboxes, which the next
// collective on the group will misinterpret as its own. The runtime only
// catches this late — checkIdle panics at the next blocking call, or
// AssertDrained at teardown — and only on executions that reach those
// guards. This analyzer makes the obligation a compile-time property:
// on every control-flow path from the call that produced the handle to
// the function's return, the handle must reach Wait(), Carry(), or an
// ownership transfer (stored into a struct or slice such as the trainer's
// bucket arena, passed to another function, returned, or captured by a
// closure — whoever holds it then owns the obligation).
package pendingwait

import (
	"go/ast"
	"go/types"

	"dmt/internal/analysis/dmtpkg"
	"dmt/internal/analysis/flow"
	"dmt/internal/analysis/lint"
)

// Analyzer checks that every comm.Pending is waited, carried, or
// transferred on all paths.
var Analyzer = &lint.Analyzer{Name: "pendingwait", Run: run}

func classify(method string) flow.Class {
	if method == "Wait" || method == "Carry" {
		return flow.Satisfy
	}
	return flow.Neutral
}

func run(pass *lint.Pass) {
	for _, f := range pass.Files {
		lint.WithStack(f, func(n ast.Node, stack []ast.Node) bool {
			if call, ok := n.(*ast.CallExpr); ok {
				check(pass, call, stack)
			}
			return true
		})
	}
}

func check(pass *lint.Pass, call *ast.CallExpr, stack []ast.Node) {
	tv, ok := pass.TypesInfo.Types[call]
	if !ok || !dmtpkg.IsNamed(tv.Type, "comm", "Pending") {
		return
	}
	binding, id, bindStmt, method := flow.Bind(stack)
	switch binding {
	case flow.BindDiscard, flow.BindBlank:
		pass.Reportf(call.Pos(), "comm.Pending from %s is dropped without Wait or Carry: the handle leaks and the next collective on the group will panic or misdeliver", callName(call))
	case flow.BindRecv:
		if classify(method) != flow.Satisfy {
			pass.Reportf(call.Pos(), "comm.Pending from %s is consumed by %s without Wait or Carry", callName(call), method)
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
			ClassifyMethod: classify,
		}
		if _, leaks := flow.Leaks(pass.CFGs.Enclosing(stack), tr); leaks {
			pass.Reportf(call.Pos(), "comm.Pending %q from %s may reach a return without Wait or Carry", id.Name, callName(call))
		}
	}
}

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
