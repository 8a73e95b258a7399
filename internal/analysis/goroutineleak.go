package analysis

import (
	"go/ast"
	"go/constant"
	"go/types"
)

// goroutineLeakRoots are the long-running processes where a leaked
// goroutine accumulates until the daemon dies: the serving layer, the
// cluster tier (replicator, health prober, fan-out pool), the HTTP layer
// both share, and the cmd entrypoints that wire them up. Batch tools and
// the simulation kernel exit with the process and are out of scope.
var goroutineLeakRoots = []string{
	"repro/internal/sweep/serve",
	"repro/internal/sweep/cluster",
	"repro/internal/sweep/httpapi",
	"repro/cmd",
}

// GoroutineLeak requires every `go` statement in the serving and
// cluster packages to carry a provable exit path — one of:
//
//   - a select with a receive case that returns (the stop/done-channel
//     loop the replicator and health prober use);
//   - a range over a channel that the spawning function closes (the
//     bounded fan-out worker shape);
//   - WaitGroup membership: Add before the spawn, defer Done in the
//     body, and a Wait somewhere in the package;
//   - a straight-line body (no loops) whose channel operations are
//     provably non-blocking — sends into a channel made in the
//     spawning function with a constant capacity covering them (the
//     `errc <- srv.ListenAndServe()` daemon shape), receives only
//     from a Done() channel.
//
// Anything else — a bare for{}, an unbuffered send nobody may drain,
// a spawn through a callee this package cannot see — is a finding.
var GoroutineLeak = &Analyzer{
	Name: "goroutineleak",
	Doc: "require every go statement in serve/cluster/httpapi/cmd packages to have a provable " +
		"exit path: a stop-channel select, a ranged channel the spawner closes, a " +
		"joined WaitGroup, or a non-blocking straight-line body",
	Run: runGoroutineLeak,
}

func runGoroutineLeak(pass *Pass) error {
	if !inScope(pass.Pkg.Path(), goroutineLeakRoots...) {
		return nil
	}
	decls := declaredFuncs(pass)
	for _, file := range pass.Files {
		for _, d := range file.Decls {
			decl, ok := d.(*ast.FuncDecl)
			if !ok || decl.Body == nil {
				continue
			}
			ast.Inspect(decl.Body, func(n ast.Node) bool {
				g, ok := n.(*ast.GoStmt)
				if !ok {
					return true
				}
				checkGoStmt(pass, decls, decl.Body, g)
				return true
			})
		}
	}
	return nil
}

// declaredFuncs maps this package's function objects to their
// declarations, so `go p.healthLoop()` resolves to an inspectable body.
func declaredFuncs(pass *Pass) map[types.Object]*ast.FuncDecl {
	m := make(map[types.Object]*ast.FuncDecl)
	for _, file := range pass.Files {
		for _, d := range file.Decls {
			if decl, ok := d.(*ast.FuncDecl); ok && decl.Body != nil {
				if obj := pass.Info.Defs[decl.Name]; obj != nil {
					m[obj] = decl
				}
			}
		}
	}
	return m
}

func checkGoStmt(pass *Pass, decls map[types.Object]*ast.FuncDecl, enclosing *ast.BlockStmt, g *ast.GoStmt) {
	if pass.Allowed(g.Pos(), "goroutineleak") {
		return
	}
	body := spawnedBody(pass, decls, g.Call)
	if body == nil {
		pass.Reportf(g.Pos(), "goroutine body is not visible from this package, so its exit "+
			"path cannot be checked; spawn a local function or closure, or annotate "+
			"//sweepvet:allow(goroutineleak) <reason>")
		return
	}
	if hasExitSelect(body) ||
		rangesOverClosedChan(pass, enclosing, body) ||
		waitGroupJoined(pass, enclosing, body, g) ||
		nonBlockingStraightLine(pass, enclosing, body) {
		return
	}
	pass.Reportf(g.Pos(), "goroutine has no provable exit path: give it a stop/done-channel "+
		"select that returns, range it over a channel the spawner closes, join it "+
		"through a WaitGroup, or annotate //sweepvet:allow(goroutineleak) <reason>")
}

// spawnedBody resolves the block a go statement executes: a literal's
// body, or the declaration of a same-package function or method.
func spawnedBody(pass *Pass, decls map[types.Object]*ast.FuncDecl, call *ast.CallExpr) *ast.BlockStmt {
	switch fun := call.Fun.(type) {
	case *ast.FuncLit:
		return fun.Body
	case *ast.Ident:
		if decl := decls[pass.Info.Uses[fun]]; decl != nil {
			return decl.Body
		}
	case *ast.SelectorExpr:
		if decl := decls[pass.Info.Uses[fun.Sel]]; decl != nil {
			return decl.Body
		}
	}
	return nil
}

// hasExitSelect reports whether the body contains a select with a
// receive case whose clause returns — the canonical stop-channel loop.
func hasExitSelect(body *ast.BlockStmt) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		sel, ok := n.(*ast.SelectStmt)
		if !ok {
			return true
		}
		for _, c := range sel.Body.List {
			comm, ok := c.(*ast.CommClause)
			if !ok || !isReceive(comm.Comm) {
				continue
			}
			for _, s := range comm.Body {
				ast.Inspect(s, func(n ast.Node) bool {
					if _, ok := n.(*ast.ReturnStmt); ok {
						found = true
						return false
					}
					// A nested function literal's returns are its own.
					_, lit := n.(*ast.FuncLit)
					return !lit
				})
			}
		}
		return true
	})
	return found
}

// isReceive reports whether a select communication is a channel
// receive (bare, or the value/ok assignment forms).
func isReceive(comm ast.Stmt) bool {
	switch s := comm.(type) {
	case *ast.ExprStmt:
		u, ok := s.X.(*ast.UnaryExpr)
		return ok && u.Op.String() == "<-"
	case *ast.AssignStmt:
		if len(s.Rhs) != 1 {
			return false
		}
		u, ok := s.Rhs[0].(*ast.UnaryExpr)
		return ok && u.Op.String() == "<-"
	}
	return false
}

// rangesOverClosedChan reports whether the body ranges over a
// channel-typed variable that the spawning function closes: the worker
// then exits when the spawner's close drains through.
func rangesOverClosedChan(pass *Pass, enclosing *ast.BlockStmt, body *ast.BlockStmt) bool {
	ok := false
	ast.Inspect(body, func(n ast.Node) bool {
		if ok {
			return false
		}
		rng, isRange := n.(*ast.RangeStmt)
		if !isRange {
			return true
		}
		if _, isChan := pass.Info.TypeOf(rng.X).Underlying().(*types.Chan); !isChan {
			return true
		}
		id, isIdent := rng.X.(*ast.Ident)
		if !isIdent {
			return true
		}
		if chanClosedIn(pass, enclosing, pass.Info.Uses[id]) {
			ok = true
		}
		return true
	})
	return ok
}

// chanClosedIn reports whether close(obj) appears in the block.
func chanClosedIn(pass *Pass, block *ast.BlockStmt, obj types.Object) bool {
	if obj == nil {
		return false
	}
	closed := false
	ast.Inspect(block, func(n ast.Node) bool {
		if closed {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok || len(call.Args) != 1 {
			return true
		}
		if id, ok := call.Fun.(*ast.Ident); !ok || pass.Info.Uses[id] != types.Universe.Lookup("close") {
			return true
		}
		if arg, ok := call.Args[0].(*ast.Ident); ok && pass.Info.Uses[arg] == obj {
			closed = true
		}
		return true
	})
	return closed
}

// waitGroupJoined reports the WaitGroup discipline: an Add call before
// the spawn in the spawning function, a deferred Done in the body, and
// a Wait on a WaitGroup somewhere in the package.
func waitGroupJoined(pass *Pass, enclosing *ast.BlockStmt, body *ast.BlockStmt, g *ast.GoStmt) bool {
	addBefore := false
	ast.Inspect(enclosing, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok && n.Pos() < g.Pos() && isWaitGroupCall(pass, call, "Add") {
			addBefore = true
		}
		return !addBefore
	})
	if !addBefore {
		return false
	}
	doneDeferred := false
	ast.Inspect(body, func(n ast.Node) bool {
		if def, ok := n.(*ast.DeferStmt); ok && isWaitGroupCall(pass, def.Call, "Done") {
			doneDeferred = true
		}
		return !doneDeferred
	})
	if !doneDeferred {
		return false
	}
	for _, file := range pass.Files {
		waited := false
		ast.Inspect(file, func(n ast.Node) bool {
			if call, ok := n.(*ast.CallExpr); ok && isWaitGroupCall(pass, call, "Wait") {
				waited = true
			}
			return !waited
		})
		if waited {
			return true
		}
	}
	return false
}

// isWaitGroupCall reports whether the call is sync.WaitGroup method
// name, resolved through the type checker.
func isWaitGroupCall(pass *Pass, call *ast.CallExpr, name string) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != name {
		return false
	}
	fn, ok := pass.Info.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "sync" {
		return false
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return false
	}
	t := sig.Recv().Type()
	if p, isPtr := t.(*types.Pointer); isPtr {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	return ok && named.Obj().Name() == "WaitGroup"
}

// nonBlockingStraightLine accepts a loop-free body whose channel
// operations cannot block forever: every send targets a channel made in
// the spawning function with a constant capacity of at least one,
// every receive reads a Done() channel.
func nonBlockingStraightLine(pass *Pass, enclosing *ast.BlockStmt, body *ast.BlockStmt) bool {
	ok := true
	ast.Inspect(body, func(n ast.Node) bool {
		if !ok {
			return false
		}
		switch n := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.ForStmt, *ast.RangeStmt:
			ok = false
			return false
		case *ast.SendStmt:
			if !provablyBuffered(pass, enclosing, n.Chan) {
				ok = false
			}
		case *ast.UnaryExpr:
			if n.Op.String() == "<-" && !isDoneChan(n.X) {
				ok = false
			}
		}
		return ok
	})
	return ok
}

// isDoneChan reports whether the receive operand is a call to a method
// named Done — the context.Context convention for a channel that is
// closed exactly once.
func isDoneChan(x ast.Expr) bool {
	call, ok := x.(*ast.CallExpr)
	if !ok {
		return false
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	return ok && sel.Sel.Name == "Done"
}

// provablyBuffered reports whether the channel expression resolves to a
// variable the spawning function makes with constant capacity >= 1.
func provablyBuffered(pass *Pass, enclosing *ast.BlockStmt, ch ast.Expr) bool {
	id, ok := ch.(*ast.Ident)
	if !ok {
		return false
	}
	obj := pass.Info.Uses[id]
	if obj == nil {
		return false
	}
	buffered := false
	ast.Inspect(enclosing, func(n ast.Node) bool {
		if buffered {
			return false
		}
		assign, ok := n.(*ast.AssignStmt)
		if !ok {
			return true
		}
		for i, lhs := range assign.Lhs {
			lid, ok := lhs.(*ast.Ident)
			if !ok || i >= len(assign.Rhs) {
				continue
			}
			lobj := pass.Info.Defs[lid]
			if lobj == nil {
				lobj = pass.Info.Uses[lid]
			}
			if lobj != obj {
				continue
			}
			if makeChanCap(pass, assign.Rhs[i]) >= 1 {
				buffered = true
			}
		}
		return true
	})
	return buffered
}

// makeChanCap returns the constant capacity of a make(chan T, n)
// expression, or -1.
func makeChanCap(pass *Pass, e ast.Expr) int64 {
	call, ok := e.(*ast.CallExpr)
	if !ok || len(call.Args) != 2 {
		return -1
	}
	if id, ok := call.Fun.(*ast.Ident); !ok || pass.Info.Uses[id] != types.Universe.Lookup("make") {
		return -1
	}
	if _, isChan := pass.Info.TypeOf(call.Args[0]).Underlying().(*types.Chan); !isChan {
		return -1
	}
	tv, ok := pass.Info.Types[call.Args[1]]
	if !ok || tv.Value == nil {
		return -1
	}
	v, ok := constant.Int64Val(constant.ToInt(tv.Value))
	if !ok {
		return -1
	}
	return v
}
