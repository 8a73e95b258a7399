package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// DeadAPI flags exported API under internal/ that no shipped code
// calls. Every exported func, method, type, const and var there must be
// referenced by non-test code somewhere in the module: the root facade,
// cmd/ and examples/ count, test files do not. Two kinds of name are
// exempt. A method that satisfies an interface declared in the module
// or in a standard-library package it imports may be called through
// that interface. A package named like net/http/httptest
// (analysistest) exists for tests, so its API is for tests too.
//
// A reference from inside a declaration to itself does not count, so a
// recursive func or a type named only by its own methods stays dead.
// One deletion can expose another; rerun until clean.
//
// The check needs every package at once, so it runs only when the
// driver hands the pass a Module (the standalone sweepvet and the
// analysistest harness); under -vettool it reports nothing.
var DeadAPI = &Analyzer{
	Name: "deadapi",
	Doc: "flag exported funcs, methods, types, consts and vars under internal/ that no " +
		"non-test code in the module references; methods that satisfy an interface are " +
		"exempt (standalone driver only)",
	Run: runDeadAPI,
}

// deadIndex is what deadapi needs from the whole module: the keys of
// every object non-test code references, and the interfaces a method
// might satisfy, grouped by method name.
type deadIndex struct {
	refs   map[string]bool
	ifaces map[string][]*types.Interface
}

func runDeadAPI(pass *Pass) error {
	if pass.Module == nil || !inScope(pass.Pkg.Path(), "repro/internal") ||
		strings.HasSuffix(pass.Pkg.Name(), "test") {
		return nil
	}
	idx := pass.Module.deadIndex()
	for _, file := range pass.Files {
		if isTestFile(pass.Fset, file) {
			continue
		}
		for _, d := range file.Decls {
			switch d := d.(type) {
			case *ast.FuncDecl:
				if d.Name.IsExported() {
					checkDead(pass, idx, d.Name)
				}
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					switch s := spec.(type) {
					case *ast.TypeSpec:
						if s.Name.IsExported() {
							checkDead(pass, idx, s.Name)
						}
					case *ast.ValueSpec:
						for _, name := range s.Names {
							if name.IsExported() {
								checkDead(pass, idx, name)
							}
						}
					}
				}
			}
		}
	}
	return nil
}

func checkDead(pass *Pass, idx *deadIndex, name *ast.Ident) {
	obj := pass.Info.Defs[name]
	if obj == nil || idx.refs[objKey(obj)] || pass.Allowed(name.Pos(), "deadapi") {
		return
	}
	kind := "func"
	switch obj := obj.(type) {
	case *types.Func:
		if recv := obj.Signature().Recv(); recv != nil {
			if idx.satisfiesInterface(recv.Type(), obj.Name()) {
				return
			}
			kind = "method"
		}
	case *types.TypeName:
		kind = "type"
	case *types.Const:
		kind = "const"
	case *types.Var:
		kind = "var"
	}
	pass.Reportf(name.Pos(), "exported %s %s has no non-test reference in the module; "+
		"delete it, move a test-only oracle into export_test.go, or argue for it with "+
		"//sweepvet:allow(deadapi) <reason>", kind, displayName(obj))
}

// satisfiesInterface reports whether a pointer to the named type behind
// recv, whose method set holds every method of the type, implements
// some indexed interface that has a method called name.
func (idx *deadIndex) satisfiesInterface(recv types.Type, name string) bool {
	ptr := types.NewPointer(receiverNamed(recv))
	for _, iface := range idx.ifaces[name] {
		if types.Implements(ptr, iface) {
			return true
		}
	}
	return false
}

// deadIndex builds the module-wide index once per Module; drivers run
// passes one at a time.
func (m *Module) deadIndex() *deadIndex {
	if m.dead != nil {
		return m.dead
	}
	errIface := types.Universe.Lookup("error").Type().Underlying().(*types.Interface)
	m.dead = &deadIndex{
		refs:   make(map[string]bool),
		ifaces: map[string][]*types.Interface{"Error": {errIface}},
	}
	seen := make(map[*types.Package]bool)
	for _, pkg := range m.Pkgs {
		collectRefs(pkg, m.dead.refs)
		collectInterfaces(pkg.Pkg, seen, m.dead.ifaces)
	}
	return m.dead
}

// collectRefs records every object the package's non-test files use,
// except a declaration's uses of itself: a func's or method's own name,
// a method's receiver type, and a type's own name inside its spec.
func collectRefs(pkg *Package, refs map[string]bool) {
	for _, file := range pkg.Files {
		if isTestFile(pkg.Fset, file) {
			continue
		}
		for _, d := range file.Decls {
			var self []types.Object
			switch d := d.(type) {
			case *ast.FuncDecl:
				self = append(self, pkg.Info.Defs[d.Name])
				if d.Recv != nil && len(d.Recv.List) == 1 {
					if named := receiverNamed(pkg.Info.TypeOf(d.Recv.List[0].Type)); named != nil {
						self = append(self, named.Obj())
					}
				}
				markUses(pkg, d, self, refs)
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					self = self[:0]
					if ts, ok := spec.(*ast.TypeSpec); ok {
						self = append(self, pkg.Info.Defs[ts.Name])
					}
					markUses(pkg, spec, self, refs)
				}
			}
		}
	}
}

func markUses(pkg *Package, n ast.Node, self []types.Object, refs map[string]bool) {
	ast.Inspect(n, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		obj := pkg.Info.Uses[id]
		if obj == nil || obj.Pkg() == nil {
			return true
		}
		if f, ok := obj.(*types.Func); ok {
			obj = f.Origin()
		} else if obj.Parent() != obj.Pkg().Scope() {
			return true // a field or a local: not package-level API
		}
		for _, s := range self {
			if obj == s {
				return true
			}
		}
		refs[objKey(obj)] = true
		return true
	})
}

// collectInterfaces indexes, by method name, every named non-generic
// interface declared in pkg or in anything it imports, transitively.
func collectInterfaces(pkg *types.Package, seen map[*types.Package]bool, out map[string][]*types.Interface) {
	if seen[pkg] {
		return
	}
	seen[pkg] = true
	scope := pkg.Scope()
	for _, name := range scope.Names() {
		tn, ok := scope.Lookup(name).(*types.TypeName)
		if !ok {
			continue
		}
		if named, ok := tn.Type().(*types.Named); ok && named.TypeParams().Len() > 0 {
			continue
		}
		iface, ok := tn.Type().Underlying().(*types.Interface)
		if !ok {
			continue
		}
		for i := 0; i < iface.NumMethods(); i++ {
			m := iface.Method(i).Name()
			out[m] = append(out[m], iface)
		}
	}
	for _, imp := range pkg.Imports() {
		collectInterfaces(imp, seen, out)
	}
}

// objKey names an object independently of which type-check produced
// it: the standalone loader checks each package once as itself and
// again as its importers' dependency, and the two copies are distinct
// objects.
func objKey(obj types.Object) string {
	return obj.Pkg().Path() + "." + displayName(obj)
}

// displayName is obj's name within its package: Recv.Method for a
// method.
func displayName(obj types.Object) string {
	if f, ok := obj.(*types.Func); ok {
		if recv := f.Signature().Recv(); recv != nil {
			if named := receiverNamed(recv.Type()); named != nil {
				return named.Obj().Name() + "." + f.Name()
			}
		}
	}
	return obj.Name()
}

// receiverNamed returns the named type behind a receiver type T or *T.
func receiverNamed(t types.Type) *types.Named {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, _ := t.(*types.Named)
	return named
}

func isTestFile(fset *token.FileSet, f *ast.File) bool {
	return strings.HasSuffix(fset.File(f.Pos()).Name(), "_test.go")
}
