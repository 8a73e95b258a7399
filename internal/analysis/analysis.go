// Package analysis is a self-contained go/analysis-style framework plus
// the repo-specific analyzer suite behind cmd/sweepvet. It machine-checks
// the three load-bearing invariants of this reproduction — deterministic
// byte-identical sweep output, append-only scenario hashing and record
// encoding, and the store/cluster locking discipline — so a careless diff
// fails `sweepvet` instead of silently breaking every deployed cache
// directory.
//
// The framework deliberately mirrors golang.org/x/tools/go/analysis
// (Analyzer, Pass, Diagnostic, an analysistest-style golden harness)
// without depending on it: the build environment is hermetic, so the
// suite runs on the standard library alone. Analyzers are fact-free and
// per-package; cross-package structure (for example campaign.Config seen
// from internal/sweep) is reached through the type-checked import graph,
// which both the source-importer driver (load.go) and the `go vet
// -vettool` unit-checker protocol (cmd/sweepvet) provide. The one check
// that needs what imports a package, not what it imports — deadapi —
// reads the pass's Module, which only the source-importer driver fills.
//
// # Suppressing a diagnostic
//
// Deliberate violations are annotated in the source, one reason per
// site, with a marker comment on the flagged line or the line above:
//
//	t0 := time.Now() //sweepvet:allow(timenow) serve latency counter, never folded into records
//
// The marker names the check it silences — timenow, maporder, iolock,
// close, hotpath, goroutineleak, atomics, sharedresult, deadapi — so an
// annotation never suppresses more than it argues for. The reason text
// after the marker is mandatory: `sweepvet -allows` audits every active
// marker and fails on an empty reason, so suppressions cannot rot
// silently.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"regexp"
	"strings"
)

// An Analyzer describes one invariant check.
type Analyzer struct {
	// Name is the analyzer's identifier, as printed in diagnostics and
	// accepted by cmd/sweepvet -run.
	Name string
	// Doc is the one-paragraph description shown by cmd/sweepvet -list.
	Doc string
	// Run executes the check over one package.
	Run func(*Pass) error
}

// A Pass provides one analyzer with one type-checked package.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	// Files holds the package's parsed sources, comments included.
	Files []*ast.File
	// Pkg is the type-checked package; its import graph carries the
	// cross-package types analyzers inspect (e.g. campaign.Config).
	Pkg  *types.Package
	Info *types.Info
	// Report delivers one diagnostic to the driver.
	Report func(Diagnostic)
	// Module holds every package of the run, for checks that need
	// them all at once; nil when the driver sees one package at a time.
	Module *Module

	// allow maps filename -> line -> the checks allowlisted there,
	// built lazily from //sweepvet:allow(...) comments.
	allow map[string]map[int][]string
}

// A Module is every package one driver run loaded together. Drivers
// that see one compilation unit at a time (go vet -vettool) have none,
// and the checks that need it (deadapi) stay silent there.
type Module struct {
	Pkgs []*Package

	dead *deadIndex // built by the first deadapi pass
}

// A Diagnostic is one reported finding.
type Diagnostic struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: %s: %s", d.Pos, d.Analyzer, d.Message)
}

// Reportf reports a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.Report(Diagnostic{
		Pos:      p.Fset.Position(pos),
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

var allowRE = regexp.MustCompile(`//sweepvet:allow\(([a-z, ]+)\)`)

// Allowed reports whether the given check is suppressed at pos by a
// //sweepvet:allow(check) comment on the same line or the line above.
func (p *Pass) Allowed(pos token.Pos, check string) bool {
	if p.allow == nil {
		p.allow = make(map[string]map[int][]string)
		for _, f := range p.Files {
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					m := allowRE.FindStringSubmatch(c.Text)
					if m == nil {
						continue
					}
					cp := p.Fset.Position(c.Pos())
					lines := p.allow[cp.Filename]
					if lines == nil {
						lines = make(map[int][]string)
						p.allow[cp.Filename] = lines
					}
					for _, tok := range strings.Split(m[1], ",") {
						lines[cp.Line] = append(lines[cp.Line], strings.TrimSpace(tok))
					}
				}
			}
		}
	}
	pp := p.Fset.Position(pos)
	for _, line := range []int{pp.Line, pp.Line - 1} {
		for _, tok := range p.allow[pp.Filename][line] {
			if tok == check {
				return true
			}
		}
	}
	return false
}

// inScope reports whether a package path falls under any of the given
// roots (the root itself or any subpackage).
func inScope(path string, roots ...string) bool {
	for _, r := range roots {
		if path == r || strings.HasPrefix(path, r+"/") {
			return true
		}
	}
	return false
}

// All returns the full sweepvet suite in stable order.
func All() []*Analyzer {
	return []*Analyzer{
		Determinism,
		AppendOnlyHash,
		JSONTags,
		TLVTags,
		LockDiscipline,
		CloseCheck,
		Hotpath,
		GoroutineLeak,
		AtomicDiscipline,
		SharedResult,
		DeadAPI,
	}
}

// ByName resolves a comma-separated analyzer list against All,
// preserving suite order.
func ByName(names string) ([]*Analyzer, error) {
	if names == "" {
		return All(), nil
	}
	want := make(map[string]bool)
	for _, n := range strings.Split(names, ",") {
		n = strings.TrimSpace(n)
		if n == "" {
			continue
		}
		want[n] = true
	}
	var out []*Analyzer
	for _, a := range All() {
		if want[a.Name] {
			out = append(out, a)
			delete(want, a.Name)
		}
	}
	if len(want) > 0 {
		for n := range want {
			return nil, fmt.Errorf("unknown analyzer %q", n)
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no analyzers selected from %q", names)
	}
	return out, nil
}

// RunPackage runs the analyzers over one loaded package of mod (nil
// when the driver has no module), appending diagnostics to sink.
// Analyzer errors (not findings) are returned.
func RunPackage(pkg *Package, mod *Module, analyzers []*Analyzer, sink func(Diagnostic)) error {
	for _, a := range analyzers {
		pass := &Pass{
			Analyzer: a,
			Fset:     pkg.Fset,
			Files:    pkg.Files,
			Pkg:      pkg.Pkg,
			Info:     pkg.Info,
			Report:   sink,
			Module:   mod,
		}
		if err := a.Run(pass); err != nil {
			return fmt.Errorf("%s: %s: %w", pkg.Pkg.Path(), a.Name, err)
		}
	}
	return nil
}
