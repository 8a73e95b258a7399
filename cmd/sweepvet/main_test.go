package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/analysis"
)

func TestValidateFlagsRejectsNonsense(t *testing.T) {
	cases := []struct {
		name     string
		version  bool
		list     bool
		jsonOut  bool
		allows   bool
		baseline bool
		run      string
		args     []string
		wantErr  string
	}{
		{"defaults", false, false, false, false, false, "", nil, ""},
		{"patterns", false, false, false, false, false, "", []string{"./..."}, ""},
		{"json", false, false, true, false, false, "", []string{"./internal/sweep/..."}, ""},
		{"run-subset", false, false, false, false, false, "determinism,closecheck", []string{"./..."}, ""},
		{"run-new-analyzers", false, false, false, false, false, "hotpath,goroutineleak,atomicdiscipline", []string{"./..."}, ""},
		{"run-deadapi", false, false, false, false, false, "deadapi", []string{"./internal/..."}, ""},
		{"list", false, true, false, false, false, "", nil, ""},
		{"version", true, false, false, false, false, "", nil, ""},
		{"allows", false, false, false, true, false, "", nil, ""},
		{"allows-with-patterns", false, false, false, true, false, "", []string{"./..."}, ""},
		{"baseline", false, false, false, false, true, "", []string{"./..."}, ""},
		{"unit-cfg", false, false, false, false, false, "", []string{"/tmp/vet073/unit.cfg"}, ""},
		{"version-and-list", true, true, false, false, false, "", nil, "-version stands alone"},
		{"version-and-json", true, false, true, false, false, "", nil, "-version stands alone"},
		{"version-and-args", true, false, false, false, false, "", []string{"./..."}, "-version stands alone"},
		{"version-and-allows", true, false, false, true, false, "", nil, "-version stands alone"},
		{"unknown-analyzer", false, false, false, false, false, "nosuch", []string{"./..."}, `unknown analyzer "nosuch"`},
		{"list-with-args", false, true, false, false, false, "", []string{"./..."}, "-list takes no package patterns"},
		{"cfg-plus-patterns", false, false, false, false, false, "", []string{"unit.cfg", "./..."}, "exactly one .cfg"},
		{"allows-and-json", false, false, true, true, false, "", nil, "-allows combines only with package patterns"},
		{"allows-and-run", false, false, false, true, false, "determinism", nil, "-allows combines only with package patterns"},
		{"allows-and-baseline", false, false, false, true, true, "", nil, "-allows combines only with package patterns"},
		{"baseline-and-json", false, false, true, false, true, "", nil, "-hotpath-baseline combines only with package patterns"},
		{"baseline-and-run", false, false, false, false, true, "hotpath", nil, "-hotpath-baseline combines only with package patterns"},
		{"allows-and-cfg", false, false, false, true, false, "", []string{"unit.cfg"}, "does not combine"},
		{"baseline-and-cfg", false, false, false, false, true, "", []string{"unit.cfg"}, "does not combine"},
	}
	for _, c := range cases {
		err := validateFlags(c.version, c.list, c.jsonOut, c.allows, c.baseline, c.run, c.args)
		if c.wantErr == "" {
			if err != nil {
				t.Errorf("%s: unexpected error %v", c.name, err)
			}
			continue
		}
		if err == nil || !strings.Contains(err.Error(), c.wantErr) {
			t.Errorf("%s: got %v, want error containing %q", c.name, err, c.wantErr)
		}
	}
}

// writeUnitCfg builds a minimal unit-check config for an import-free
// synthetic package, the shape `go vet` hands a vettool.
func writeUnitCfg(t *testing.T, dir string, goFiles []string) string {
	t.Helper()
	cfg := vetConfig{
		ID:         "repro/internal/sweep/vettagged",
		Compiler:   "gc",
		Dir:        dir,
		ImportPath: "repro/internal/sweep/vettagged",
		GoVersion:  "go1.24",
		GoFiles:    goFiles,
		VetxOutput: filepath.Join(dir, "out.vetx"),
	}
	data, err := json.Marshal(cfg)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "unit.cfg")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestUnitCheckHonorsBuildTags is the satellite regression test: the
// vettool path must analyze the same file set `go list` reports, so a
// .cfg naming a build-tag-excluded file (hand-built, or produced under
// different GOFLAGS) must not smuggle that file's violations into the
// run — or its clean code into type-checking conflicts.
func TestUnitCheckHonorsBuildTags(t *testing.T) {
	violation := "package vettagged\n\nfunc emit(m map[string]int, out []string) []string {\n" +
		"\tfor k := range m {\n\t\tout = append(out, k)\n\t}\n\treturn out\n}\n"

	t.Run("tag-excluded violation is not analyzed", func(t *testing.T) {
		dir := t.TempDir()
		clean := filepath.Join(dir, "clean.go")
		if err := os.WriteFile(clean, []byte("package vettagged\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		tagged := filepath.Join(dir, "tagged.go")
		if err := os.WriteFile(tagged, []byte("//go:build neverenabledtag\n\n"+violation), 0o644); err != nil {
			t.Fatal(err)
		}
		cfg := writeUnitCfg(t, dir, []string{clean, tagged})
		if code := unitCheck(cfg, []*analysis.Analyzer{analysis.Determinism}); code != 0 {
			t.Fatalf("unitCheck = %d, want 0: the tagged file is outside the go list file set", code)
		}
	})

	t.Run("included violation is still caught", func(t *testing.T) {
		dir := t.TempDir()
		src := filepath.Join(dir, "code.go")
		if err := os.WriteFile(src, []byte(violation), 0o644); err != nil {
			t.Fatal(err)
		}
		cfg := writeUnitCfg(t, dir, []string{src})
		if code := unitCheck(cfg, []*analysis.Analyzer{analysis.Determinism}); code != 1 {
			t.Fatalf("unitCheck = %d, want 1: the same violation without the tag must be reported", code)
		}
	})
}

// TestUnitCheckSkipsDeadAPI: the go command hands a vettool one package
// at a time, so deadapi cannot tell a dead export from one another
// package calls and must report nothing there.
func TestUnitCheckSkipsDeadAPI(t *testing.T) {
	dir := t.TempDir()
	src := filepath.Join(dir, "code.go")
	if err := os.WriteFile(src, []byte("package vettagged\n\nfunc Unused() {}\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	cfg := writeUnitCfg(t, dir, []string{src})
	if code := unitCheck(cfg, []*analysis.Analyzer{analysis.DeadAPI}); code != 0 {
		t.Fatalf("unitCheck = %d, want 0: deadapi runs only where every package is loaded", code)
	}
}
