package flow

import (
	"go/ast"
	"go/token"
	"go/types"
)

// A CFG is the control-flow graph of one function body. Blocks[0] is the
// entry; blocks that nothing reaches (code after a return, a branch, or a
// call that never returns) stay in Blocks so Leaks still sees their nodes.
type CFG struct {
	Blocks []*Block
	// returns: some return statement is reachable from the entry.
	returns bool
}

// A Block is a run of nodes that execute in order: statements, the
// expressions that decide a branch, and the ValueSpecs of var
// declarations. A block ending in a branch condition has two successors,
// Succs[0] taken when it is true and Succs[1] when it is false; one
// ending a select or type switch head has one per clause. A block ending
// in a *ast.ReturnStmt has none; falling off the end of the body is
// materialised as a return at the closing brace.
type Block struct {
	Nodes []ast.Node
	Succs []*Block
}

// New builds the graph of body. mayReturn reports whether a call in
// statement position can return; the statements after one that cannot
// are unreachable.
func New(body *ast.BlockStmt, mayReturn func(*ast.CallExpr) bool) *CFG {
	b := &builder{g: &CFG{}, mayReturn: mayReturn, labels: map[string]*label{}}
	b.cur = b.newBlock()
	b.stmt(body, nil)

	live := map[*Block]bool{}
	for q := []*Block{b.g.Blocks[0]}; len(q) > 0; {
		blk := q[len(q)-1]
		q = q[:len(q)-1]
		if !live[blk] {
			live[blk] = true
			q = append(q, blk.Succs...)
		}
	}
	if live[b.cur] {
		b.add(&ast.ReturnStmt{Return: body.Rbrace})
	}
	for _, blk := range b.g.Blocks {
		b.g.returns = b.g.returns || live[blk] && returnEnd(blk) != nil
	}
	return b.g
}

type builder struct {
	g         *CFG
	cur       *Block
	mayReturn func(*ast.CallExpr) bool
	targets   *targets
	labels    map[string]*label
}

// targets are where an unlabelled break, continue or fallthrough inside
// the innermost enclosing statement goes; nil where that statement does
// not bind one (continue in a switch, say), so the search goes outward.
type targets struct {
	outer                    *targets
	brk, cont, fallthroughTo *Block
}

// label is a labelled statement: where a goto enters it, and where a
// break or continue naming it goes.
type label struct {
	start, brk, cont *Block
}

func (b *builder) newBlock() *Block {
	blk := &Block{}
	b.g.Blocks = append(b.g.Blocks, blk)
	return blk
}

func (b *builder) add(n ast.Node) { b.cur.Nodes = append(b.cur.Nodes, n) }

// jump ends the current block with an edge to each of to, in order.
func (b *builder) jump(to ...*Block) { b.cur.Succs = append(b.cur.Succs, to...) }

func (b *builder) label(name string) *label {
	l := b.labels[name]
	if l == nil {
		l = &label{start: b.newBlock()}
		b.labels[name] = l
	}
	return l
}

// body builds stmts with t as the innermost branch targets, binding the
// statement's label, if any, to the same break and continue.
func (b *builder) body(stmts []ast.Stmt, lbl *label, t targets) {
	if lbl != nil {
		lbl.brk, lbl.cont = t.brk, t.cont
	}
	t.outer = b.targets
	b.targets = &t
	for _, s := range stmts {
		b.stmt(s, nil)
	}
	b.targets = t.outer
}

// stmt adds s to the graph; lbl is its label when s is the statement of
// a *ast.LabeledStmt.
func (b *builder) stmt(s ast.Stmt, lbl *label) {
	switch s := s.(type) {
	case *ast.BlockStmt:
		b.body(s.List, nil, targets{})

	case *ast.ExprStmt:
		b.add(s)
		if call, ok := s.X.(*ast.CallExpr); ok && !b.mayReturn(call) {
			b.cur = b.newBlock()
		}

	case *ast.ReturnStmt:
		b.add(s)
		b.cur = b.newBlock()

	case *ast.DeclStmt:
		if d := s.Decl.(*ast.GenDecl); d.Tok == token.VAR {
			for _, spec := range d.Specs {
				b.add(spec)
			}
		}

	case *ast.LabeledStmt:
		l := b.label(s.Label.Name)
		b.jump(l.start)
		b.cur = l.start
		b.stmt(s.Stmt, l)

	case *ast.BranchStmt:
		var to *Block
		switch {
		case s.Tok == token.GOTO:
			to = b.label(s.Label.Name).start
		case s.Label != nil && s.Tok == token.BREAK:
			to = b.label(s.Label.Name).brk
		case s.Label != nil:
			to = b.label(s.Label.Name).cont
		default:
			for t := b.targets; t != nil && to == nil; t = t.outer {
				switch s.Tok {
				case token.BREAK:
					to = t.brk
				case token.CONTINUE:
					to = t.cont
				case token.FALLTHROUGH:
					to = t.fallthroughTo
				}
			}
		}
		b.jump(to)
		b.cur = b.newBlock()

	case *ast.IfStmt:
		if s.Init != nil {
			b.stmt(s.Init, nil)
		}
		then, done := b.newBlock(), b.newBlock()
		els := done
		if s.Else != nil {
			els = b.newBlock()
		}
		b.add(s.Cond)
		b.jump(then, els)
		b.cur = then
		b.stmt(s.Body, nil)
		b.jump(done)
		if s.Else != nil {
			b.cur = els
			b.stmt(s.Else, nil)
			b.jump(done)
		}
		b.cur = done

	case *ast.ForStmt:
		if s.Init != nil {
			b.stmt(s.Init, nil)
		}
		body, done := b.newBlock(), b.newBlock()
		loop := body
		if s.Cond != nil {
			loop = b.newBlock()
		}
		cont := loop
		if s.Post != nil {
			cont = b.newBlock()
		}
		b.jump(loop)
		if s.Cond != nil {
			b.cur = loop
			b.add(s.Cond)
			b.jump(body, done)
		}
		b.cur = body
		b.body(s.Body.List, lbl, targets{brk: done, cont: cont})
		b.jump(cont)
		if s.Post != nil {
			b.cur = cont
			b.stmt(s.Post, nil)
			b.jump(loop)
		}
		b.cur = done

	case *ast.RangeStmt:
		b.add(s.X)
		if s.Key != nil {
			b.add(s.Key)
		}
		if s.Value != nil {
			b.add(s.Value)
		}
		loop, body, done := b.newBlock(), b.newBlock(), b.newBlock()
		b.jump(loop)
		b.cur = loop
		b.jump(body, done)
		b.cur = body
		b.body(s.Body.List, lbl, targets{brk: done, cont: loop})
		b.jump(loop)
		b.cur = done

	case *ast.SwitchStmt:
		if s.Init != nil {
			b.stmt(s.Init, nil)
		}
		if s.Tag != nil {
			b.add(s.Tag)
		}
		// Each case expression is a condition: true enters its clause,
		// false tries the next one. The default clause, wherever it
		// sits, is taken only after every expression failed.
		done := b.newBlock()
		bodies := make([]*Block, len(s.Body.List))
		for i := range bodies {
			bodies[i] = b.newBlock()
		}
		dflt := done
		for i, c := range s.Body.List {
			cc := c.(*ast.CaseClause)
			if cc.List == nil {
				dflt = bodies[i]
			}
			for _, e := range cc.List {
				next := b.newBlock()
				b.add(e)
				b.jump(bodies[i], next)
				b.cur = next
			}
		}
		b.jump(dflt)
		for i, c := range s.Body.List {
			fall := done
			if i+1 < len(bodies) {
				fall = bodies[i+1]
			}
			b.cur = bodies[i]
			b.body(c.(*ast.CaseClause).Body, lbl, targets{brk: done, fallthroughTo: fall})
			b.jump(done)
		}
		b.cur = done

	case *ast.TypeSwitchStmt:
		if s.Init != nil {
			b.stmt(s.Init, nil)
		}
		b.add(s.Assign)
		head, done := b.cur, b.newBlock()
		dflt := false
		for _, c := range s.Body.List {
			cc := c.(*ast.CaseClause)
			dflt = dflt || cc.List == nil
			b.cur = b.newBlock()
			head.Succs = append(head.Succs, b.cur)
			b.body(cc.Body, lbl, targets{brk: done})
			b.jump(done)
		}
		if !dflt {
			head.Succs = append(head.Succs, done)
		}
		b.cur = done

	case *ast.SelectStmt:
		// The channel operands are evaluated up front; then exactly one
		// clause runs, so with no default there is no path around them.
		for _, c := range s.Body.List {
			if comm := c.(*ast.CommClause).Comm; comm != nil {
				b.stmt(comm, nil)
			}
		}
		head, done := b.cur, b.newBlock()
		for _, c := range s.Body.List {
			cc := c.(*ast.CommClause)
			b.cur = b.newBlock()
			head.Succs = append(head.Succs, b.cur)
			if recv, ok := cc.Comm.(*ast.AssignStmt); ok {
				b.add(recv.Lhs[0])
			}
			b.body(cc.Body, lbl, targets{brk: done})
			b.jump(done)
		}
		b.cur = done

	default:
		// Assignments, sends, inc/dec, go, defer, empty statements.
		b.add(s)
	}
}

// Graphs maps each function body of one package, declared or literal, to
// its control-flow graph.
type Graphs map[*ast.BlockStmt]*CFG

// Enclosing returns the graph of the innermost function on an ancestor
// stack (stack[0] the file), or nil at package scope.
func (gs Graphs) Enclosing(stack []ast.Node) *CFG {
	for i := len(stack) - 1; i >= 0; i-- {
		switch f := stack[i].(type) {
		case *ast.FuncLit:
			return gs[f.Body]
		case *ast.FuncDecl:
			return gs[f.Body]
		}
	}
	return nil
}

// Build builds the graph of every function body in one type-checked
// package. noReturn holds the functions of already-built packages that
// never return; Build adds the package's own: every declared function
// with no reachable return, found by building callees before callers (a
// call cycle is cut by treating the function still being built as one
// that returns). A call never returns when its callee is panic, one of
// those functions, or a standard-library exit (stdNoReturn).
func Build(info *types.Info, files []*ast.File, noReturn map[*types.Func]bool) Graphs {
	p := &pkgBuild{info: info, noReturn: noReturn, todo: map[*types.Func]*ast.FuncDecl{}, graphs: Graphs{}}
	var decls []*types.Func
	var lits []*ast.FuncLit
	for _, f := range files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncDecl:
				if fn, ok := info.Defs[n.Name].(*types.Func); ok && n.Body != nil {
					p.todo[fn] = n
					decls = append(decls, fn)
				}
			case *ast.FuncLit:
				lits = append(lits, n)
			}
			return true
		})
	}
	for _, fn := range decls {
		p.build(fn)
	}
	for _, lit := range lits {
		p.graphs[lit.Body] = New(lit.Body, p.mayReturn)
	}
	return p.graphs
}

type pkgBuild struct {
	info     *types.Info
	noReturn map[*types.Func]bool
	todo     map[*types.Func]*ast.FuncDecl // declarations not yet started
	graphs   Graphs
}

func (p *pkgBuild) build(fn *types.Func) {
	decl, ok := p.todo[fn]
	if !ok {
		return
	}
	delete(p.todo, fn)
	g := New(decl.Body, p.mayReturn)
	p.graphs[decl.Body] = g
	if !g.returns {
		p.noReturn[fn] = true
	}
}

func (p *pkgBuild) mayReturn(call *ast.CallExpr) bool {
	if id, ok := call.Fun.(*ast.Ident); ok && p.info.Uses[id] == types.Universe.Lookup("panic") {
		return false
	}
	fn := staticCallee(p.info, call)
	if fn == nil {
		return true
	}
	p.build(fn)
	return !p.noReturn[fn] && !stdNoReturn(fn)
}

// staticCallee returns the function or concrete method a call names, or
// nil for builtins, conversions, interface methods and function values.
func staticCallee(info *types.Info, call *ast.CallExpr) *types.Func {
	fun := ast.Unparen(call.Fun)
	switch f := fun.(type) {
	case *ast.IndexExpr:
		fun = f.X
	case *ast.IndexListExpr:
		fun = f.X
	}
	var id *ast.Ident
	switch f := fun.(type) {
	case *ast.Ident:
		id = f
	case *ast.SelectorExpr:
		id = f.Sel
	}
	fn, _ := info.Uses[id].(*types.Func)
	if fn == nil || fn.Signature().Recv() != nil && types.IsInterface(fn.Signature().Recv().Type()) {
		return nil
	}
	return fn
}

// stdNoReturn reports whether fn is a standard-library function that ends
// the process, the goroutine or the test instead of returning.
func stdNoReturn(fn *types.Func) bool {
	switch fn.Pkg().Path() + "." + fn.Name() {
	case "os.Exit", "syscall.Exit", "runtime.Goexit",
		"log.Fatal", "log.Fatalf", "log.Fatalln", "log.Panic", "log.Panicf", "log.Panicln",
		"testing.Fatal", "testing.Fatalf", "testing.FailNow", "testing.Skip", "testing.Skipf", "testing.SkipNow":
		return true
	}
	return false
}
