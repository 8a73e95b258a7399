package analysis

import (
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// loadFixture parses and type-checks one testdata package for tests
// that need direct Pass access (the escape-baseline machinery is
// injected below the analysistest harness's want-comment layer).
func loadFixture(t *testing.T, relDir, importPath string) *Package {
	t.Helper()
	fset := token.NewFileSet()
	entries, err := os.ReadDir(relDir)
	if err != nil {
		t.Fatal(err)
	}
	var files []*ast.File
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		f, err := parser.ParseFile(fset, filepath.Join(relDir, e.Name()), nil, parser.ParseComments)
		if err != nil {
			t.Fatal(err)
		}
		files = append(files, f)
	}
	info := NewInfo()
	conf := types.Config{Importer: importer.ForCompiler(fset, "source", nil)}
	tpkg, err := conf.Check(importPath, fset, files, info)
	if err != nil {
		t.Fatalf("typecheck %s: %v", importPath, err)
	}
	return &Package{Fset: fset, Files: files, Pkg: tpkg, Info: info}
}

// stubEscapes swaps in a canned escape source and baseline, restoring
// both on cleanup.
func stubEscapes(t *testing.T, findings []escapeFinding, baseline string) {
	t.Helper()
	oldSrc, oldBase := hotpathEscapes, hotpathBaselineData
	hotpathEscapes = func(string) ([]escapeFinding, error) { return findings, nil }
	hotpathBaselineData = baseline
	t.Cleanup(func() { hotpathEscapes, hotpathBaselineData = oldSrc, oldBase })
}

// funcLine returns the line of the named function's declaration plus an
// offset, so fake escape findings can sit inside its body without
// hard-coding line numbers into the test.
func funcLine(t *testing.T, pkg *Package, name string, offset int) int {
	t.Helper()
	for _, f := range pkg.Files {
		for _, d := range f.Decls {
			if decl, ok := d.(*ast.FuncDecl); ok && decl.Name.Name == name {
				return pkg.Fset.Position(decl.Pos()).Line + offset
			}
		}
	}
	t.Fatalf("no function %q in fixture", name)
	return 0
}

func runHotpathOn(t *testing.T, pkg *Package) []Diagnostic {
	t.Helper()
	var diags []Diagnostic
	if err := RunPackage(pkg, nil, []*Analyzer{Hotpath}, func(d Diagnostic) { diags = append(diags, d) }); err != nil {
		t.Fatal(err)
	}
	return diags
}

const fixtureDir = "testdata/src/repro/internal/vethot_baseline"
const fixturePath = "repro/internal/vethot_baseline"

// TestHotpathBaselineDrift is the seeded-drift case the satellite
// requires: the baseline deliberately omits one escape the compiler
// reports, and the diagnostic must name both the function and the
// escaping expression.
func TestHotpathBaselineDrift(t *testing.T) {
	pkg := loadFixture(t, fixtureDir, fixturePath)
	growLine := funcLine(t, pkg, "grow", 1)
	stubEscapes(t, []escapeFinding{
		{File: "baseline.go", Line: growLine, Msg: "&node{...} escapes to heap"},
	}, fixturePath+".grow\t-\n"+fixturePath+".sum\t-\n")

	diags := runHotpathOn(t, pkg)
	if len(diags) != 1 {
		t.Fatalf("want exactly one drift diagnostic, got %d: %v", len(diags), diags)
	}
	msg := diags[0].Message
	if !strings.Contains(msg, "new escape in hot path "+fixturePath+".grow") {
		t.Errorf("drift diagnostic does not name the function: %q", msg)
	}
	if !strings.Contains(msg, "&node{...} escapes to heap") {
		t.Errorf("drift diagnostic does not name the escaping expression: %q", msg)
	}
	if diags[0].Pos.Line != growLine {
		t.Errorf("drift diagnostic at line %d, want %d", diags[0].Pos.Line, growLine)
	}
}

// TestHotpathBaselineClean pins the quiet case: compiler escapes that
// exactly match the baseline produce no findings.
func TestHotpathBaselineClean(t *testing.T) {
	pkg := loadFixture(t, fixtureDir, fixturePath)
	growLine := funcLine(t, pkg, "grow", 1)
	stubEscapes(t, []escapeFinding{
		{File: "baseline.go", Line: growLine, Msg: "&node{...} escapes to heap"},
	}, fixturePath+".grow\t&node{...} escapes to heap\n"+fixturePath+".sum\t-\n")

	if diags := runHotpathOn(t, pkg); len(diags) != 0 {
		t.Fatalf("want no diagnostics for a matching baseline, got %v", diags)
	}
}

// TestHotpathBaselineMissingEntry: an annotated function absent from
// the baseline entirely is itself a finding — every hot path must have
// a checked-in entry, even an empty one.
func TestHotpathBaselineMissingEntry(t *testing.T) {
	pkg := loadFixture(t, fixtureDir, fixturePath)
	stubEscapes(t, nil, fixturePath+".grow\t-\n") // sum has no entry

	diags := runHotpathOn(t, pkg)
	if len(diags) != 1 {
		t.Fatalf("want one missing-entry diagnostic, got %d: %v", len(diags), diags)
	}
	if !strings.Contains(diags[0].Message, fixturePath+".sum has no escape baseline entry") {
		t.Errorf("unexpected message: %q", diags[0].Message)
	}
}

// TestHotpathBaselineStaleEntry: a baseline escape the compiler no
// longer reports must be flagged so the file tracks reality.
func TestHotpathBaselineStaleEntry(t *testing.T) {
	pkg := loadFixture(t, fixtureDir, fixturePath)
	stubEscapes(t, nil,
		fixturePath+".grow\t&node{...} escapes to heap\n"+fixturePath+".sum\t-\n")

	diags := runHotpathOn(t, pkg)
	if len(diags) != 1 {
		t.Fatalf("want one stale-entry diagnostic, got %d: %v", len(diags), diags)
	}
	if !strings.Contains(diags[0].Message, "stale escape baseline entry for "+fixturePath+".grow") {
		t.Errorf("unexpected message: %q", diags[0].Message)
	}
}

// TestHotpathBaselineOrphanEntry: a baseline entry naming a function
// this package no longer annotates (or no longer has) must be flagged,
// while entries for other packages are left to their own passes.
func TestHotpathBaselineOrphanEntry(t *testing.T) {
	pkg := loadFixture(t, fixtureDir, fixturePath)
	stubEscapes(t, nil,
		fixturePath+".grow\t-\n"+
			fixturePath+".sum\t-\n"+
			fixturePath+".gone\t-\n"+ // orphan: no such function here
			"repro/internal/vethot_baselineother.f\t-\n") // different package: not ours to judge

	diags := runHotpathOn(t, pkg)
	if len(diags) != 1 {
		t.Fatalf("want one orphan diagnostic, got %d: %v", len(diags), diags)
	}
	if !strings.Contains(diags[0].Message, "orphaned escape baseline entry for "+fixturePath+".gone") {
		t.Errorf("unexpected message: %q", diags[0].Message)
	}
}

// TestHotpathBaselineOrphanAfterUnannotate pins the removal scenario:
// dropping the last //sweepvet:hotpath marker from a package must not
// silently strand its baseline entries — the orphan check runs even
// when the package has no annotated functions left.
func TestHotpathBaselineOrphanAfterUnannotate(t *testing.T) {
	const orphanPath = "repro/internal/vethot_orphan"
	pkg := loadFixture(t, "testdata/src/repro/internal/vethot_orphan", orphanPath)
	stubEscapes(t, nil, orphanPath+".cold\t-\n")

	diags := runHotpathOn(t, pkg)
	if len(diags) != 1 {
		t.Fatalf("want one orphan diagnostic, got %d: %v", len(diags), diags)
	}
	if !strings.Contains(diags[0].Message, "orphaned escape baseline entry for "+orphanPath+".cold") {
		t.Errorf("unexpected message: %q", diags[0].Message)
	}
}

// TestParseEscapes pins the -m=2 output normalization: deduplication of
// the with-colon/without-colon pairs, flow-line and non-escape
// filtering, and position parsing.
func TestParseEscapes(t *testing.T) {
	out := strings.Join([]string{
		"# repro/internal/des",
		"internal/des/des.go:146:7: &Event{...} escapes to heap:",
		"internal/des/des.go:146:7:   flow: e = &{storage for &Event{...}}:",
		"internal/des/des.go:146:7:     from &Event{...} (spill) at internal/des/des.go:146:7",
		"internal/des/des.go:146:7: &Event{...} escapes to heap",
		"internal/des/des.go:200:2: moved to heap: x",
		"internal/des/des.go:123:4: parameter fn leaks to {heap} with derefs=0:",
		"internal/des/des.go:50:10: (*eventQueue).Pop ignoring self-assignment in old[n-1] = nil",
		"internal/des/des.go:99:9: s does not escape",
	}, "\n")
	got := parseEscapes(out)
	want := []escapeFinding{
		{File: "des.go", Line: 146, Msg: "&Event{...} escapes to heap"},
		{File: "des.go", Line: 200, Msg: "moved to heap: x"},
	}
	if len(got) != len(want) {
		t.Fatalf("parseEscapes = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("parseEscapes[%d] = %v, want %v", i, got[i], want[i])
		}
	}
}

// TestParseBaseline pins the file format: comments, blanks, the "-"
// empty-set marker, and multiple messages per function.
func TestParseBaseline(t *testing.T) {
	base := parseBaseline("# comment\n\na.F\t-\nb.(*T).M\tx escapes to heap\nb.(*T).M\ty escapes to heap\n")
	if got := len(base["a.F"]); got != 0 {
		t.Errorf(`baseline["a.F"] has %d messages, want 0`, got)
	}
	if _, ok := base["a.F"]; !ok {
		t.Error(`baseline["a.F"] entry missing: "-" must record an explicit empty set`)
	}
	if !base["b.(*T).M"]["x escapes to heap"] || !base["b.(*T).M"]["y escapes to heap"] {
		t.Errorf(`baseline["b.(*T).M"] = %v, want both messages`, base["b.(*T).M"])
	}
}
