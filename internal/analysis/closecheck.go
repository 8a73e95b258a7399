package analysis

import (
	"go/ast"
	"go/types"
)

// closeRoots are the packages on the durability path: the store that
// promises acknowledged records survive restart, the serve layer that
// streams segment bytes, the cluster layer that installs them, and the
// shared HTTP layer whose final stream flush decides whether a sweep
// response is complete.
var closeRoots = []string{
	"repro/internal/sweep/store",
	"repro/internal/sweep/serve",
	"repro/internal/sweep/cluster",
	"repro/internal/sweep/httpapi",
}

// closeMethods are the calls whose error return is the last chance to
// learn that buffered bytes never reached the disk.
var closeMethods = map[string]bool{
	"Close": true, "Sync": true, "Flush": true,
}

// CloseCheck flags statement-level Close/Sync/Flush calls whose error
// result is silently discarded on a writable handle. On this store's
// write paths, a failed Close or Sync is exactly the moment an
// acknowledged record turns out not to be durable — dropping the error
// converts a reportable write failure into silent data loss discovered
// at the next restart. Deferred calls and explicit `_ =` discards are
// exempt (both are visible decisions); genuine best-effort sites carry
// //sweepvet:allow(close) with a reason.
var CloseCheck = &Analyzer{
	Name: "closecheck",
	Doc: "flag discarded Close/Sync/Flush errors on writable handles in the " +
		"store, serve, cluster and httpapi packages, where they are the only signal " +
		"that acknowledged bytes were lost",
	Run: runCloseCheck,
}

func runCloseCheck(pass *Pass) error {
	if !inScope(pass.Pkg.Path(), closeRoots...) {
		return nil
	}
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			stmt, ok := n.(*ast.ExprStmt)
			if !ok {
				return true
			}
			call, ok := stmt.X.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok || !closeMethods[sel.Sel.Name] {
				return true
			}
			fn, ok := pass.Info.Uses[sel.Sel].(*types.Func)
			if !ok {
				return true
			}
			sig, ok := fn.Type().(*types.Signature)
			if !ok || sig.Recv() == nil || !returnsOnlyError(sig) {
				return true
			}
			recv := pass.Info.TypeOf(sel.X)
			if recv == nil || !writerLike(pass, recv) {
				// A read-only handle (resp.Body, an io.ReadCloser) has no
				// buffered bytes to lose; closing it best-effort is fine.
				return true
			}
			if pass.Allowed(call.Pos(), "close") {
				return true
			}
			pass.Reportf(call.Pos(), "%s.%s() error discarded on a writable handle: a "+
				"failed %s here is the only signal that acknowledged bytes never "+
				"reached the disk; check the error, or annotate a best-effort site "+
				"with //sweepvet:allow(close) <reason>",
				types.ExprString(sel.X), sel.Sel.Name, sel.Sel.Name)
			return true
		})
	}
	return nil
}

// returnsOnlyError reports whether the method's sole result is error.
func returnsOnlyError(sig *types.Signature) bool {
	if sig.Results().Len() != 1 {
		return false
	}
	named, ok := sig.Results().At(0).Type().(*types.Named)
	return ok && named.Obj().Pkg() == nil && named.Obj().Name() == "error"
}

// writerLike reports whether the receiver's static type has a Write
// method — the shape of a handle that can hold unflushed bytes.
func writerLike(pass *Pass, t types.Type) bool {
	obj, _, _ := types.LookupFieldOrMethod(t, true, pass.Pkg, "Write")
	_, ok := obj.(*types.Func)
	return ok
}
