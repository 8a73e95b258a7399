// Package analysistest runs one analyzer over a golden testdata package
// and checks its diagnostics against `// want "regex"` comments, in the
// style of golang.org/x/tools/go/analysis/analysistest but built on the
// standard library alone.
//
// Testdata packages live under <testdata>/src/<importpath>/ (the
// GOPATH-shaped layout the x/tools harness uses), so a package can carry
// an import path that places it inside the scope an analyzer guards —
// e.g. testdata/src/repro/internal/sweep/vetbad_maporder. Imports of
// other testdata packages resolve within the tree; everything else
// resolves as a standard-library import.
package analysistest

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"

	"repro/internal/analysis"
)

// expectation is one // want comment: a diagnostic that must be reported
// on that file and line.
type expectation struct {
	file string
	line int
	re   *regexp.Regexp
	met  bool
}

// testImporter resolves imports for testdata packages: paths present
// under srcRoot load (and type-check) from the testdata tree, everything
// else falls through to the source importer for the standard library.
type testImporter struct {
	srcRoot string
	fset    *token.FileSet
	std     types.Importer
	cache   map[string]*types.Package
}

func (ti *testImporter) Import(path string) (*types.Package, error) {
	if pkg, ok := ti.cache[path]; ok {
		return pkg, nil
	}
	dir := filepath.Join(ti.srcRoot, filepath.FromSlash(path))
	if fi, err := os.Stat(dir); err != nil || !fi.IsDir() {
		return ti.std.Import(path)
	}
	files, _, err := parseDir(ti.fset, dir)
	if err != nil {
		return nil, err
	}
	conf := types.Config{Importer: ti}
	pkg, err := conf.Check(path, ti.fset, files, analysis.NewInfo())
	if err != nil {
		return nil, fmt.Errorf("typecheck testdata import %s: %w", path, err)
	}
	ti.cache[path] = pkg
	return pkg, nil
}

func parseDir(fset *token.FileSet, dir string) ([]*ast.File, []string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, nil, err
	}
	var files []*ast.File
	var names []string
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		path := filepath.Join(dir, e.Name())
		f, err := parser.ParseFile(fset, path, nil, parser.ParseComments)
		if err != nil {
			return nil, nil, err
		}
		files = append(files, f)
		names = append(names, path)
	}
	if len(files) == 0 {
		return nil, nil, fmt.Errorf("no Go files in %s", dir)
	}
	return files, names, nil
}

// Run loads each named package from testdata/src, runs the analyzer, and
// reports mismatches between actual diagnostics and // want comments as
// test failures. The named packages form the pass's Module, so a check
// that needs every package at once (deadapi) sees references between
// them.
func Run(t *testing.T, testdata string, a *analysis.Analyzer, pkgPaths ...string) {
	t.Helper()
	srcRoot := filepath.Join(testdata, "src")
	fset := token.NewFileSet()
	ti := &testImporter{
		srcRoot: srcRoot,
		fset:    fset,
		std:     importer.ForCompiler(fset, "source", nil),
		cache:   make(map[string]*types.Package),
	}
	mod := &analysis.Module{}
	names := make([][]string, len(pkgPaths))
	for i, path := range pkgPaths {
		files, fileNames, err := parseDir(fset, filepath.Join(srcRoot, filepath.FromSlash(path)))
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		info := analysis.NewInfo()
		tpkg, err := (&types.Config{Importer: ti}).Check(path, fset, files, info)
		if err != nil {
			t.Fatalf("typecheck %s: %v", path, err)
		}
		mod.Pkgs = append(mod.Pkgs, &analysis.Package{Fset: fset, Files: files, Pkg: tpkg, Info: info})
		names[i] = fileNames
	}
	for i, pkg := range mod.Pkgs {
		check(t, a, pkg, mod, names[i])
	}
}

// TestData returns the canonical testdata directory for the calling
// test: ./testdata relative to the test's working directory.
func TestData(t *testing.T) string {
	t.Helper()
	abs, err := filepath.Abs("testdata")
	if err != nil {
		t.Fatal(err)
	}
	return abs
}

var wantRE = regexp.MustCompile(`//\s*want\s+(.*)$`)

// check runs the analyzer over one loaded package and matches its
// diagnostics against the // want comments in the package's files.
func check(t *testing.T, a *analysis.Analyzer, pkg *analysis.Package, mod *analysis.Module, names []string) {
	t.Helper()
	path := pkg.Pkg.Path()
	// Collect the expectations from // want comments.
	var wants []*expectation
	for _, name := range names {
		data, err := os.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		for i, line := range strings.Split(string(data), "\n") {
			m := wantRE.FindStringSubmatch(line)
			if m == nil {
				continue
			}
			for _, pat := range splitQuoted(t, name, i+1, m[1]) {
				re, err := regexp.Compile(pat)
				if err != nil {
					t.Fatalf("%s:%d: bad want pattern %q: %v", name, i+1, pat, err)
				}
				wants = append(wants, &expectation{file: name, line: i + 1, re: re})
			}
		}
	}

	var diags []analysis.Diagnostic
	sink := func(d analysis.Diagnostic) { diags = append(diags, d) }
	if err := analysis.RunPackage(pkg, mod, []*analysis.Analyzer{a}, sink); err != nil {
		t.Fatalf("%s: analyzer %s: %v", path, a.Name, err)
	}
	sort.Slice(diags, func(i, j int) bool {
		if diags[i].Pos.Filename != diags[j].Pos.Filename {
			return diags[i].Pos.Filename < diags[j].Pos.Filename
		}
		return diags[i].Pos.Line < diags[j].Pos.Line
	})

	for _, d := range diags {
		matched := false
		for _, w := range wants {
			if !w.met && w.file == d.Pos.Filename && w.line == d.Pos.Line && w.re.MatchString(d.Message) {
				w.met = true
				matched = true
				break
			}
		}
		if !matched {
			t.Errorf("%s: unexpected diagnostic: %s", path, d)
		}
	}
	for _, w := range wants {
		if !w.met {
			t.Errorf("%s: no diagnostic at %s:%d matching %q", path, w.file, w.line, w.re)
		}
	}
}

// splitQuoted parses the tail of a want comment: one or more
// double-quoted or backquoted regexps.
func splitQuoted(t *testing.T, file string, line int, s string) []string {
	t.Helper()
	var out []string
	s = strings.TrimSpace(s)
	for s != "" {
		var q byte = s[0]
		if q != '"' && q != '`' {
			t.Fatalf("%s:%d: want patterns must be quoted, got %q", file, line, s)
		}
		end := strings.IndexByte(s[1:], q)
		if end < 0 {
			t.Fatalf("%s:%d: unterminated want pattern %q", file, line, s)
		}
		raw := s[:end+2]
		pat := raw[1 : len(raw)-1]
		if q == '"' {
			u, err := strconv.Unquote(raw)
			if err != nil {
				t.Fatalf("%s:%d: bad want pattern %s: %v", file, line, raw, err)
			}
			pat = u
		}
		out = append(out, pat)
		s = strings.TrimSpace(s[end+2:])
	}
	return out
}
