package analysis

import (
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
	"strings"
)

// The packages whose types define the shared-result contract.
const (
	sharedCachePkg  = "repro/internal/sweep"
	sharedResultPkg = "repro/internal/campaign"
	sharedStatsPkg  = "repro/internal/stats"
)

// sampleWriters are the stats methods that write their receiver: Add
// and AddDuration append and fold, Quantile, Median, CDF and
// FractionBelow sort the raw samples in place, and Histogram reads raw
// samples that only a Want.Raw result is guaranteed to carry.
var sampleWriters = map[string]bool{
	"Add": true, "AddDuration": true, "Quantile": true, "Median": true,
	"CDF": true, "FractionBelow": true, "Histogram": true,
}

// SharedResult flags writes through the sweep cache's own memory: a
// *campaign.Result that a non-raw Cache.Resolve returned, or the record
// bytes Cache.Rendered returned. Either is shared with every concurrent
// reader, so a write corrupts every later hit and races with record
// encoding. The check is intraprocedural and flow-insensitive: it
// follows the returned variable, variables bound from it (aliases,
// reslices, its samples, map and slice elements, range values of
// reference type), and flags field, element and map stores,
// increments, delete/clear/copy into any of them, an append onto a
// reslice of one (it writes the shared array past the reslice's
// length), and calls to the stats writers above. A Resolve counts as
// raw only when its Want literal sets Raw to the constant true; bind a
// Clone to a new variable to mutate a shared result. Rendered bytes
// have capacity equal to their length, so appending to them copies:
// bind the append to a new variable to extend them.
var SharedResult = &Analyzer{
	Name: "sharedresult",
	Doc: "flag non-test writes (field/map/element stores, copy, Add, Quantile and the " +
		"other sorting stats methods) through a *campaign.Result returned by a " +
		"non-raw sweep Cache.Resolve or the bytes Cache.Rendered returns, which are " +
		"shared read-only with every reader",
	Run: runSharedResult,
}

func runSharedResult(pass *Pass) error {
	for _, file := range pass.Files {
		if strings.HasSuffix(pass.Fset.Position(file.Pos()).Filename, "_test.go") {
			continue
		}
		shared := sharedVars(pass, file)
		if len(shared) == 0 {
			continue
		}
		report := func(at ast.Node, what string) {
			if pass.Allowed(at.Pos(), "sharedresult") {
				return
			}
			pass.Reportf(at.Pos(), "%s writes through a shared cached result: a non-raw "+
				"Cache.Resolve returns the cache's own *campaign.Result and Cache.Rendered "+
				"the entry's own bytes; resolve with sweep.Want{Raw: true} or copy the "+
				"bytes for a private copy, or annotate with "+
				"//sweepvet:allow(sharedresult) <reason>", what)
		}
		ast.Inspect(file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.AssignStmt:
				if n.Tok == token.DEFINE {
					return true
				}
				for _, lhs := range n.Lhs {
					if isSharedPath(pass, shared, lhs) {
						report(lhs, "assignment to "+types.ExprString(lhs))
					}
				}
			case *ast.IncDecStmt:
				if isSharedPath(pass, shared, n.X) {
					report(n.X, n.Tok.String()+" on "+types.ExprString(n.X))
				}
			case *ast.CallExpr:
				if id, ok := ast.Unparen(n.Fun).(*ast.Ident); ok && len(n.Args) > 0 {
					b, ok := pass.Info.Uses[id].(*types.Builtin)
					if !ok {
						return true
					}
					switch b.Name() {
					case "delete", "clear", "copy":
						if sharedRoot(pass, shared, n.Args[0]) != nil {
							report(n, b.Name()+" on "+types.ExprString(n.Args[0]))
						}
					case "append":
						if _, reslice := ast.Unparen(n.Args[0]).(*ast.SliceExpr); reslice &&
							sharedRoot(pass, shared, n.Args[0]) != nil {
							report(n, "append onto "+types.ExprString(n.Args[0]))
						}
					}
					return true
				}
				sel, ok := ast.Unparen(n.Fun).(*ast.SelectorExpr)
				if !ok || !sampleWriters[sel.Sel.Name] {
					return true
				}
				fn, ok := pass.Info.Uses[sel.Sel].(*types.Func)
				if !ok || fn.Pkg() == nil || fn.Pkg().Path() != sharedStatsPkg {
					return true
				}
				if sharedRoot(pass, shared, sel.X) != nil {
					report(n, "call to "+types.ExprString(sel.X)+"."+sel.Sel.Name)
				}
			}
			return true
		})
	}
	return nil
}

// sharedVars collects the variables in file that hold, or reach into,
// cache-owned memory: first the results of non-raw Resolve and of
// Rendered calls themselves, then — to a fixed point — every
// reference-typed variable bound from a path rooted at one of them.
func sharedVars(pass *Pass, file *ast.File) map[*types.Var]bool {
	shared := make(map[*types.Var]bool)
	add := func(id ast.Expr) bool {
		v := identVar(pass, id)
		if v == nil || shared[v] || !isReference(v.Type()) {
			return false
		}
		shared[v] = true
		return true
	}
	ast.Inspect(file, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			if len(n.Rhs) == 1 && len(n.Lhs) > 0 && isSharedCall(pass, n.Rhs[0]) {
				add(n.Lhs[0])
			}
		case *ast.ValueSpec:
			if len(n.Values) == 1 && len(n.Names) > 0 && isSharedCall(pass, n.Values[0]) {
				add(n.Names[0])
			}
		}
		return true
	})
	for changed := len(shared) > 0; changed; {
		changed = false
		ast.Inspect(file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.AssignStmt:
				if len(n.Lhs) == len(n.Rhs) {
					for i, rhs := range n.Rhs {
						if sharedRoot(pass, shared, rhs) != nil && add(n.Lhs[i]) {
							changed = true
						}
					}
				} else if len(n.Rhs) == 1 && sharedRoot(pass, shared, n.Rhs[0]) != nil && add(n.Lhs[0]) {
					changed = true // v, ok := res.Samples[c]
				}
			case *ast.ValueSpec:
				for i, val := range n.Values {
					if i < len(n.Names) && sharedRoot(pass, shared, val) != nil && add(n.Names[i]) {
						changed = true
					}
				}
			case *ast.RangeStmt:
				if sharedRoot(pass, shared, n.X) != nil {
					for _, e := range []ast.Expr{n.Key, n.Value} {
						if e != nil && add(e) {
							changed = true
						}
					}
				}
			}
			return true
		})
	}
	return shared
}

// isSharedCall reports whether e is a call handing out the sweep
// cache's own memory: Cache.Rendered returning bytes, or Cache.Resolve
// returning a *campaign.Result whose Want argument does not set Raw to
// the constant true.
func isSharedCall(pass *Pass, e ast.Expr) bool {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok {
		return false
	}
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok || (sel.Sel.Name != "Resolve" && sel.Sel.Name != "Rendered") {
		return false
	}
	fn, ok := pass.Info.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Pkg() == nil || fn.Pkg().Path() != sharedCachePkg {
		return false
	}
	sig := fn.Type().(*types.Signature)
	if sig.Recv() == nil || sig.Results().Len() == 0 {
		return false
	}
	if sel.Sel.Name == "Rendered" {
		return isByteSlice(sig.Results().At(0).Type())
	}
	if len(call.Args) != 2 || !isResultPtr(sig.Results().At(0).Type()) {
		return false
	}
	lit, ok := ast.Unparen(call.Args[1]).(*ast.CompositeLit)
	if !ok {
		return true // a Want value: its Raw is not provably set
	}
	for _, elt := range lit.Elts {
		kv, ok := elt.(*ast.KeyValueExpr)
		if !ok {
			continue
		}
		if key, ok := kv.Key.(*ast.Ident); ok && key.Name == "Raw" {
			tv := pass.Info.Types[kv.Value]
			return tv.Value == nil || tv.Value.Kind() != constant.Bool || !constant.BoolVal(tv.Value)
		}
	}
	return true
}

// isResultPtr reports whether t is *campaign.Result.
func isResultPtr(t types.Type) bool {
	p, ok := t.(*types.Pointer)
	if !ok {
		return false
	}
	named, ok := p.Elem().(*types.Named)
	return ok && named.Obj().Pkg() != nil && named.Obj().Pkg().Path() == sharedResultPkg &&
		named.Obj().Name() == "Result"
}

// isByteSlice reports whether t is []byte.
func isByteSlice(t types.Type) bool {
	s, ok := t.Underlying().(*types.Slice)
	if !ok {
		return false
	}
	b, ok := s.Elem().Underlying().(*types.Basic)
	return ok && b.Kind() == types.Byte
}

// isSharedPath reports whether e is a store target inside shared
// memory: a field, element, or dereference path rooted at a shared
// variable (rebinding the variable itself is not a write).
func isSharedPath(pass *Pass, shared map[*types.Var]bool, e ast.Expr) bool {
	if _, bare := ast.Unparen(e).(*ast.Ident); bare {
		return false
	}
	return sharedRoot(pass, shared, e) != nil
}

// sharedRoot strips field selections, index and slice expressions and
// dereferences off e and returns the shared variable at its base, or
// nil when e is not rooted at one.
func sharedRoot(pass *Pass, shared map[*types.Var]bool, e ast.Expr) *types.Var {
	for {
		switch x := e.(type) {
		case *ast.ParenExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.SliceExpr:
			e = x.X
		case *ast.SelectorExpr:
			if s, ok := pass.Info.Selections[x]; !ok || s.Kind() != types.FieldVal {
				return nil
			}
			e = x.X
		case *ast.Ident:
			if v := identVar(pass, x); v != nil && shared[v] {
				return v
			}
			return nil
		default:
			return nil
		}
	}
}

// identVar resolves an identifier (defined or used) to its variable.
func identVar(pass *Pass, e ast.Expr) *types.Var {
	id, ok := e.(*ast.Ident)
	if !ok || id.Name == "_" {
		return nil
	}
	obj := pass.Info.Defs[id]
	if obj == nil {
		obj = pass.Info.Uses[id]
	}
	v, _ := obj.(*types.Var)
	return v
}

// isReference reports whether values of t share memory when copied:
// pointers, slices and maps.
func isReference(t types.Type) bool {
	switch t.Underlying().(type) {
	case *types.Pointer, *types.Slice, *types.Map:
		return true
	}
	return false
}
