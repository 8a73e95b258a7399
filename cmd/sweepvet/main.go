// Command sweepvet runs the repo's invariant analyzers (package
// repro/internal/analysis): determinism, appendonlyhash, jsontags,
// tlvtags, lockdiscipline, closecheck, hotpath, goroutineleak,
// atomicdiscipline, sharedresult and deadapi. It is both a standalone
// checker and a vettool speaking the go command's unit-check protocol.
//
// Usage:
//
//	sweepvet ./...                            # whole repo, human-readable
//	sweepvet -json ./internal/sweep/...       # machine-readable findings
//	sweepvet -run determinism,closecheck ./...
//	sweepvet -list                            # describe the suite
//	sweepvet -allows ./...                    # audit //sweepvet:allow markers
//	sweepvet -hotpath-baseline ./...          # regenerate the escape baseline
//	go vet -vettool=$(which sweepvet) ./...   # as the vet tool
//
// Exit status: 0 clean, 1 findings, 2 usage error.
//
// The standalone driver type-checks from source, so it must run from
// inside the module it analyzes (the source importer resolves module
// import paths through the go command, relative to the working
// directory). Only the standalone driver runs the hotpath analyzer's
// compiler escape cross-check — it drives `go build -gcflags=-m=2`,
// which needs that same module-rooted go command — and the deadapi
// check, which needs every package of the module at once. Under
// -vettool the go command hands over export data per compilation unit
// instead, no source re-checking happens, hotpath runs its AST layer
// alone and deadapi reports nothing.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"sort"
	"strings"

	sixgedge "repro"
	"repro/internal/analysis"
)

func main() {
	var (
		jsonOut  = flag.Bool("json", false, "emit findings as a JSON array on stdout")
		run      = flag.String("run", "", "comma-separated analyzer names to run (default: all)")
		list     = flag.Bool("list", false, "list the analyzers and exit")
		allows   = flag.Bool("allows", false, "audit //sweepvet:allow markers: list each with file:line, checks and reason; exit 1 on any empty reason")
		baseline = flag.Bool("hotpath-baseline", false, "regenerate the hotpath escape baseline on stdout (redirect into internal/analysis/hotpath.baseline)")
		version  = flag.Bool("version", false, "print the build version and exit")
		vFlag    = flag.String("V", "", "go tool version protocol (-V=full)")
		flagsFl  = flag.Bool("flags", false, "go vet flag-discovery protocol: print the flag schema and exit")
	)
	flag.Parse()

	// The go command's vettool handshake: `sweepvet -V=full` must print
	// "<name> version <anything>" for the build cache, and `sweepvet
	// -flags` must print the JSON schema of tool-specific flags (none —
	// analyzer selection is a sweepvet concern, not a vet one).
	if *vFlag != "" {
		fmt.Printf("sweepvet version %s\n", sixgedge.Version())
		return
	}
	if *flagsFl {
		fmt.Println("[]")
		return
	}
	if *version {
		fmt.Println("sweepvet", sixgedge.Version())
		return
	}

	if err := validateFlags(*version, *list, *jsonOut, *allows, *baseline, *run, flag.Args()); err != nil {
		fmt.Fprintln(os.Stderr, "sweepvet:", err)
		fmt.Fprintln(os.Stderr, "run with -h for usage")
		os.Exit(2)
	}

	analyzers, err := analysis.ByName(*run)
	if err != nil {
		fmt.Fprintln(os.Stderr, "sweepvet:", err)
		os.Exit(2)
	}

	if *list {
		for _, a := range analyzers {
			fmt.Printf("%s: %s\n", a.Name, a.Doc)
		}
		return
	}
	if *allows {
		os.Exit(auditAllows(flag.Args()))
	}
	if *baseline {
		os.Exit(printHotpathBaseline(flag.Args()))
	}

	args := flag.Args()
	if len(args) == 1 && strings.HasSuffix(args[0], ".cfg") {
		os.Exit(unitCheck(args[0], analyzers))
	}
	os.Exit(standalone(args, analyzers, *jsonOut))
}

// validateFlags rejects nonsensical combinations up front, in the
// cmd/sweep convention: exit 2 before any work happens.
func validateFlags(version, list, jsonOut, allows, baseline bool, run string, args []string) error {
	if version && (list || jsonOut || allows || baseline || run != "" || len(args) > 0) {
		return fmt.Errorf("-version stands alone")
	}
	if _, err := analysis.ByName(run); err != nil {
		return err
	}
	if list && len(args) > 0 {
		return fmt.Errorf("-list takes no package patterns")
	}
	if allows && (list || jsonOut || baseline || run != "") {
		return fmt.Errorf("-allows combines only with package patterns")
	}
	if baseline && (list || jsonOut || run != "") {
		return fmt.Errorf("-hotpath-baseline combines only with package patterns")
	}
	cfgs := 0
	for _, a := range args {
		if strings.HasSuffix(a, ".cfg") {
			cfgs++
		}
	}
	if cfgs > 0 && (allows || baseline) {
		return fmt.Errorf("unit-check mode does not combine with -allows or -hotpath-baseline")
	}
	if cfgs > 0 && len(args) != 1 {
		return fmt.Errorf("unit-check mode takes exactly one .cfg argument, got %d arguments", len(args))
	}
	return nil
}

// auditAllows lists every active //sweepvet:allow marker and fails if
// any carries no reason: a suppression that doesn't argue for itself
// has rotted.
func auditAllows(patterns []string) int {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	pkgs, err := analysis.Load(patterns)
	if err != nil {
		fmt.Fprintln(os.Stderr, "sweepvet:", err)
		return 2
	}
	missing := 0
	for _, s := range analysis.CollectAllows(pkgs) {
		reason := s.Reason
		if reason == "" {
			reason = "MISSING REASON"
			missing++
		}
		fmt.Printf("%s:%d: allow(%s): %s\n", s.File, s.Line, strings.Join(s.Checks, ","), reason)
	}
	if missing > 0 {
		fmt.Fprintf(os.Stderr, "sweepvet: %d allow marker(s) with no reason: every suppression must argue for itself\n", missing)
		return 1
	}
	return 0
}

// printHotpathBaseline regenerates the hotpath escape baseline from the
// current tree onto stdout.
func printHotpathBaseline(patterns []string) int {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	analysis.EnableEscapeCheck()
	pkgs, err := analysis.Load(patterns)
	if err != nil {
		fmt.Fprintln(os.Stderr, "sweepvet:", err)
		return 2
	}
	out, err := analysis.HotpathBaseline(pkgs)
	if err != nil {
		fmt.Fprintln(os.Stderr, "sweepvet:", err)
		return 2
	}
	fmt.Print(out)
	return 0
}

// finding is the -json output shape, one element per diagnostic.
type finding struct {
	File     string `json:"file"`
	Line     int    `json:"line"`
	Col      int    `json:"col"`
	Analyzer string `json:"analyzer"`
	Message  string `json:"message"`
}

// standalone loads packages from source and runs the suite, printing
// findings to stdout. Diagnostics are deduplicated: jsontags follows
// shared structs across package boundaries, so two passes can report
// the same field.
func standalone(patterns []string, analyzers []*analysis.Analyzer, jsonOut bool) int {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	// The standalone driver is module-rooted by contract, so it can
	// drive the compiler's escape analysis for the hotpath baseline
	// cross-check (the vettool path cannot and runs AST checks only).
	analysis.EnableEscapeCheck()
	// deadapi needs every package of the module at once, which only
	// this driver has; the patterns pick the packages it reports on.
	pkgs, mod, err := analysis.LoadModule(patterns)
	if err != nil {
		fmt.Fprintln(os.Stderr, "sweepvet:", err)
		return 2
	}
	var diags []analysis.Diagnostic
	seen := make(map[string]bool)
	sink := func(d analysis.Diagnostic) {
		key := fmt.Sprintf("%s:%d:%d:%s:%s", d.Pos.Filename, d.Pos.Line, d.Pos.Column,
			d.Analyzer, d.Message)
		if seen[key] {
			return
		}
		seen[key] = true
		diags = append(diags, d)
	}
	for _, pkg := range pkgs {
		if err := analysis.RunPackage(pkg, mod, analyzers, sink); err != nil {
			fmt.Fprintln(os.Stderr, "sweepvet:", err)
			return 2
		}
	}
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i].Pos, diags[j].Pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		return a.Column < b.Column
	})
	if jsonOut {
		out := make([]finding, 0, len(diags))
		for _, d := range diags {
			out = append(out, finding{
				File: d.Pos.Filename, Line: d.Pos.Line, Col: d.Pos.Column,
				Analyzer: d.Analyzer, Message: d.Message,
			})
		}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(out); err != nil {
			fmt.Fprintln(os.Stderr, "sweepvet:", err)
			return 2
		}
	} else {
		for _, d := range diags {
			fmt.Println(d)
		}
	}
	if len(diags) > 0 {
		return 1
	}
	return 0
}

// vetConfig is the unit-check file the go command hands a vettool: one
// compilation unit plus the export data of everything it imports.
type vetConfig struct {
	ID                        string
	Compiler                  string
	Dir                       string
	ImportPath                string
	GoVersion                 string
	GoFiles                   []string
	NonGoFiles                []string
	IgnoredFiles              []string
	ImportMap                 map[string]string
	PackageFile               map[string]string
	Standard                  map[string]bool
	PackageVetx               map[string]string
	VetxOnly                  bool
	VetxOutput                string
	SucceedOnTypecheckFailure bool
}

// importerFunc adapts a function to types.Importer.
type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

// unitCheck runs the suite over one go-vet compilation unit: parse the
// unit's files, type-check against the export data the go command
// already built, analyze, report to stderr. The suite is fact-free, but
// the protocol requires the facts (vetx) output file to exist, so an
// empty one is always written.
func unitCheck(cfgPath string, analyzers []*analysis.Analyzer) int {
	data, err := os.ReadFile(cfgPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "sweepvet:", err)
		return 2
	}
	var cfg vetConfig
	if err := json.Unmarshal(data, &cfg); err != nil {
		fmt.Fprintf(os.Stderr, "sweepvet: parse %s: %v\n", cfgPath, err)
		return 2
	}
	if cfg.VetxOutput != "" {
		if err := os.WriteFile(cfg.VetxOutput, []byte{}, 0o666); err != nil {
			fmt.Fprintln(os.Stderr, "sweepvet:", err)
			return 2
		}
	}
	if cfg.VetxOnly {
		return 0
	}
	// go vet hands over the test-augmented unit (the package compiled
	// with its _test.go files folded in). The invariants live in shipped
	// code, and test files use wall clocks and best-effort closes
	// routinely, so test files are dropped here — the same line the
	// standalone driver draws by analyzing only non-test GoFiles. Build
	// constraints are honored the same way: the unit is filtered to the
	// file set `go list` would report, so a .cfg naming a tag-excluded
	// file (hand-built, or built under different GOFLAGS) cannot smuggle
	// it past one driver and not the other. A purely-test unit (external
	// _test package) has nothing left and is skipped outright.
	goFiles := analysis.SelectUnitFiles(cfg.GoFiles)
	if len(goFiles) == 0 {
		return 0
	}

	fset := token.NewFileSet()
	var files []*ast.File
	for _, name := range goFiles {
		f, err := parser.ParseFile(fset, name, nil, parser.ParseComments)
		if err != nil {
			if cfg.SucceedOnTypecheckFailure {
				return 0
			}
			fmt.Fprintln(os.Stderr, "sweepvet:", err)
			return 2
		}
		files = append(files, f)
	}
	compImp := importer.ForCompiler(fset, cfg.Compiler, func(path string) (io.ReadCloser, error) {
		file, ok := cfg.PackageFile[path]
		if !ok {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(file)
	})
	imp := importerFunc(func(path string) (*types.Package, error) {
		if mapped, ok := cfg.ImportMap[path]; ok {
			path = mapped
		}
		if path == "unsafe" {
			return types.Unsafe, nil
		}
		return compImp.Import(path)
	})
	tconf := types.Config{Importer: imp, GoVersion: cfg.GoVersion}
	info := analysis.NewInfo()
	tpkg, err := tconf.Check(cfg.ImportPath, fset, files, info)
	if err != nil {
		if cfg.SucceedOnTypecheckFailure {
			return 0
		}
		fmt.Fprintf(os.Stderr, "sweepvet: typecheck %s: %v\n", cfg.ImportPath, err)
		return 2
	}

	pkg := &analysis.Package{Fset: fset, Files: files, Pkg: tpkg, Info: info}
	found := 0
	sink := func(d analysis.Diagnostic) {
		found++
		fmt.Fprintf(os.Stderr, "%s: %s\n", d.Pos, d.Message)
	}
	for _, a := range analyzers {
		if err := analysis.RunPackage(pkg, nil, []*analysis.Analyzer{a}, sink); err != nil {
			fmt.Fprintln(os.Stderr, "sweepvet:", err)
			return 2
		}
	}
	if found > 0 {
		return 1
	}
	return 0
}
