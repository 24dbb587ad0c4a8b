// Package retainrelease defines an analyzer that checks the pooled
// quant.Encoded reference-count protocol.
//
// # Invariant
//
// Encoded payload buffers are pooled: quant.Encode and EncodeResidual
// hand out an Encoded holding one reference, a sender fanning a payload
// out to n receivers calls Retain(n-1) before posting, and every
// delivered reference — in this in-process runtime, a value pulled off
// the wire with a `.(*quant.Encoded)` assertion — must be Release()d
// after its payload has been decoded or folded. A reference that is
// dropped without Release is not a crash (the pool tolerates it and the
// GC reclaims the buffers), but it silently defeats the pooling: the
// buffers never return to the pool, and the steady-state zero-alloc
// property tier-1's alloc pins hold (quant's TestPooledEncodeAllocs)
// erodes one forgotten Release at a time. The analyzer checks, per
// function, that every acquired reference reaches Release() or an
// ownership transfer (sent on the wire, stored, passed on, returned) on
// all paths to the return.
//
// Test files are exempt: dropping an Encoded without Release is
// documented as safe, and codec tests compare payloads without ever
// pooling them. The analyzer enforces the discipline where it pays —
// production send/receive paths.
package retainrelease

import (
	"go/ast"
	"go/types"

	"dmt/internal/analysis/dmtpkg"
	"dmt/internal/analysis/flow"
	"dmt/internal/analysis/lint"
)

// Analyzer checks that pooled quant.Encoded references are released or
// transferred on all paths.
var Analyzer = &lint.Analyzer{Name: "retainrelease", Run: run}

func classify(method string) flow.Class {
	if method == "Release" {
		return flow.Satisfy
	}
	// Retain, Decode, DecodeInto, AddTo, WireBytes, ... read the payload
	// but leave this holder's reference open.
	return flow.Neutral
}

func run(pass *lint.Pass) {
	check := func(n ast.Node, stack []ast.Node, what string) {
		binding, id, bindStmt, method := flow.Bind(stack)
		switch binding {
		case flow.BindDiscard, flow.BindBlank:
			pass.Reportf(n.Pos(), "pooled quant.Encoded from %s is dropped without Release: its buffers never return to the pool", what)
		case flow.BindRecv:
			if classify(method) != flow.Satisfy {
				pass.Reportf(n.Pos(), "pooled quant.Encoded from %s is consumed by %s and then dropped without Release", what, method)
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
				pass.Reportf(n.Pos(), "pooled quant.Encoded %q from %s may reach a return without Release", id.Name, what)
			}
		}
	}

	for _, f := range pass.Files {
		if dmtpkg.IsTestFile(pass.Fset, f) {
			continue
		}
		lint.WithStack(f, func(n ast.Node, stack []ast.Node) bool {
			switch n := n.(type) {
			case *ast.CallExpr:
				// A call returning *quant.Encoded mints a reference the
				// caller owns (Encode, EncodeResidual, pool getters).
				tv, ok := pass.TypesInfo.Types[n]
				if ok && dmtpkg.IsNamed(tv.Type, "quant", "Encoded") && !isMethodOnEncoded(pass, n) {
					check(n, stack, callNameOf(n))
				}
			case *ast.TypeAssertExpr:
				// Pulling a payload off the wire: each delivered reference
				// must be released by its receiver. Skip type switches —
				// their assert has no type syntax.
				if n.Type == nil {
					return true
				}
				if tv, ok := pass.TypesInfo.Types[n.Type]; ok && dmtpkg.IsNamed(tv.Type, "quant", "Encoded") {
					check(n, stack, "the wire")
				}
			}
			return true
		})
	}
}

// isMethodOnEncoded reports whether call is a method call whose receiver
// is itself an Encoded — those return derived values or the receiver,
// never a fresh reference.
func isMethodOnEncoded(pass *lint.Pass, call *ast.CallExpr) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	tv, ok := pass.TypesInfo.Types[sel.X]
	return ok && dmtpkg.IsNamed(tv.Type, "quant", "Encoded")
}

func callNameOf(call *ast.CallExpr) string {
	switch f := call.Fun.(type) {
	case *ast.SelectorExpr:
		return f.Sel.Name
	case *ast.Ident:
		return f.Name
	}
	return "call"
}
