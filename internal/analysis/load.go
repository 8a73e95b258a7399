package analysis

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os/exec"
	"path/filepath"
	"strings"
)

// Package is one loaded, type-checked package ready for analysis.
type Package struct {
	Fset  *token.FileSet
	Files []*ast.File
	Pkg   *types.Package
	Info  *types.Info
}

// listedPackage is the slice of `go list -json` output the loader needs.
type listedPackage struct {
	Dir        string
	ImportPath string
	Name       string
	GoFiles    []string
	Standard   bool
}

// Load enumerates packages matching the patterns with the go command and
// type-checks each from source. The process working directory must be
// inside the module under analysis: the source importer resolves module
// import paths by asking the go command, which answers relative to the
// current module. Only non-test GoFiles are analyzed — the invariants
// sweepvet enforces live in shipped code, and test files routinely use
// wall clocks and unordered iteration on purpose.
func Load(patterns []string) ([]*Package, error) {
	listed, err := list(patterns)
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	// One shared source importer: it caches type-checked dependencies, so
	// a repo-wide run checks each package about once instead of once per
	// importer.
	conf := types.Config{Importer: importer.ForCompiler(fset, "source", nil)}

	var pkgs []*Package
	for _, lp := range listed {
		var files []*ast.File
		for _, name := range lp.GoFiles {
			f, err := parser.ParseFile(fset, filepath.Join(lp.Dir, name), nil, parser.ParseComments)
			if err != nil {
				return nil, fmt.Errorf("parse %s: %w", name, err)
			}
			files = append(files, f)
		}
		info := NewInfo()
		tpkg, err := conf.Check(lp.ImportPath, fset, files, info)
		if err != nil {
			return nil, fmt.Errorf("typecheck %s: %w", lp.ImportPath, err)
		}
		pkgs = append(pkgs, &Package{Fset: fset, Files: files, Pkg: tpkg, Info: info})
	}
	return pkgs, nil
}

// LoadModule loads every package of module repro, for the checks that
// need them all at once (deadapi), and returns the subset the patterns
// name alongside it: one type-check serves both.
func LoadModule(patterns []string) ([]*Package, *Module, error) {
	all, err := Load([]string{"repro/..."})
	if err != nil {
		return nil, nil, err
	}
	listed, err := list(patterns)
	if err != nil {
		return nil, nil, err
	}
	want := make(map[string]bool, len(listed))
	for _, lp := range listed {
		want[lp.ImportPath] = true
	}
	var pkgs []*Package
	for _, pkg := range all {
		if want[pkg.Pkg.Path()] {
			pkgs = append(pkgs, pkg)
		}
	}
	return pkgs, &Module{Pkgs: all}, nil
}

// list runs `go list -json` over the patterns and returns the non-standard
// packages that have Go files.
func list(patterns []string) ([]listedPackage, error) {
	args := append([]string{"list", "-json"}, patterns...)
	cmd := exec.Command("go", args...)
	var out, stderr bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = &stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("go list %s: %v\n%s",
			strings.Join(patterns, " "), err, stderr.String())
	}
	var listed []listedPackage
	dec := json.NewDecoder(&out)
	for dec.More() {
		var lp listedPackage
		if err := dec.Decode(&lp); err != nil {
			return nil, fmt.Errorf("go list output: %w", err)
		}
		if !lp.Standard && len(lp.GoFiles) > 0 {
			listed = append(listed, lp)
		}
	}
	return listed, nil
}

// SelectUnitFiles filters a vet compilation unit's file list down to
// the set the standalone driver analyzes: non-test files whose build
// constraints (//go:build lines and _GOOS/_GOARCH filename suffixes)
// match the current build context. The standalone path gets exactly
// this set for free from `go list` GoFiles; applying the same rule to
// the unit-check path keeps the two drivers from disagreeing about
// tag-excluded files — a .cfg that names one (hand-built, or built
// under other GOFLAGS) must not smuggle it into analysis.
//
// A file the build context cannot read is kept: the parser downstream
// will produce the real error instead of a silent skip.
func SelectUnitFiles(goFiles []string) []string {
	var out []string
	for _, path := range goFiles {
		if strings.HasSuffix(path, "_test.go") {
			continue
		}
		dir, name := filepath.Split(path)
		ok, err := build.Default.MatchFile(dir, name)
		if err != nil || ok {
			out = append(out, path)
		}
	}
	return out
}

// NewInfo allocates the types.Info maps every analyzer relies on.
func NewInfo() *types.Info {
	return &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Implicits:  make(map[ast.Node]types.Object),
	}
}
