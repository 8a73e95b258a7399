package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/argame"
	"repro/internal/slicing"
	"repro/internal/sweep"
	"repro/internal/sweep/tlv"
)

func TestValidateFlagsRejectsBadCombinations(t *testing.T) {
	cases := []struct {
		name                  string
		cacheDir              string
		compact, compactStore bool
		workers, reps         int
		wantErr               string
	}{
		{"compact-no-dir", "", true, false, 0, 1, "-compact requires -cache-dir"},
		{"compact-store-no-dir", "", false, true, 0, 1, "-compact-store requires -cache-dir"},
		{"both-no-dir", "", true, true, 0, 1, "-compact requires -cache-dir"},
		{"compact-with-dir", ".c", true, false, 0, 1, ""},
		{"compact-store-with-dir", ".c", false, true, 0, 1, ""},
		{"plain", "", false, false, 0, 1, ""},
		{"negative-workers", "", false, false, -1, 1, "-workers must be >= 0"},
		{"explicit-workers", "", false, false, 4, 1, ""},
		{"zero-reps", "", false, false, 0, 0, "-reps must be >= 1"},
		{"negative-reps", "", false, false, 0, -3, "-reps must be >= 1"},
	}
	for _, c := range cases {
		err := validateFlags(c.cacheDir, c.compact, c.compactStore, c.workers, c.reps)
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

// TestDecodeTLVStreamRoundTrips: -decode-tlv turns a binary sweep
// stream back into the canonical JSONL, in stream order, one line per
// record. Codec exactness is the tlv package's property test; this
// covers the cmd plumbing (framing, ordering, newline discipline).
func TestDecodeTLVStreamRoundTrips(t *testing.T) {
	recs := []sweep.Record{
		{Scenario: "aa11", Variant: "v1", Seed: 1, Profile: "5G-public",
			MobileNodes: 3, TargetCells: []string{"B2"}, WiredRounds: 5,
			Measurements: 10, Factor: 1.5, Cells: []sweep.CellAggregate{}},
		{Scenario: "bb22", Variant: "v2", Seed: 2, Profile: "6G-target",
			EdgeUPF: true, MobileNodes: 5, TargetCells: []string{},
			Measurements: 20, Cells: []sweep.CellAggregate{}},
	}
	var stream, want []byte
	for i := range recs {
		stream = tlv.AppendRecord(stream, &recs[i])
		line, err := json.Marshal(&recs[i])
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, line...)
		want = append(want, '\n')
	}
	path := filepath.Join(t.TempDir(), "sweep.tlv")
	if err := os.WriteFile(path, stream, 0o644); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if err := decodeTLVStream(path, &out); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out.Bytes(), want) {
		t.Fatalf("decoded JSONL differs:\ngot  %q\nwant %q", out.Bytes(), want)
	}

	// A stream cut mid-frame must fail loudly, not truncate silently.
	if err := os.WriteFile(path, stream[:len(stream)-5], 0o644); err != nil {
		t.Fatal(err)
	}
	if err := decodeTLVStream(path, &out); err == nil {
		t.Fatal("torn stream decoded without error")
	}
}

// TestDecodeTraceFile: -decode-trace renders a concatenated pair of
// -trace-out exports (proxy + backend tiers) as one per-trace hop
// table. Rendering detail is the obs package's test; this covers the
// cmd plumbing (file reading, error surfacing).
func TestDecodeTraceFile(t *testing.T) {
	spans := `{"trace":"4bf92f3577b34da6a3ce929d0e0e4736","span":"00f067aa0ba902b7","service":"sweep-proxy","name":"scenario","start_unix_ns":1000000,"duration_us":900}
{"trace":"4bf92f3577b34da6a3ce929d0e0e4736","span":"b7ad6b7169203331","parent":"00f067aa0ba902b7","service":"sweepd","name":"scenario","start_unix_ns":1200000,"duration_us":500,"stages_us":{"store_read":120}}
`
	path := filepath.Join(t.TempDir(), "spans.jsonl")
	if err := os.WriteFile(path, []byte(spans), 0o644); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if err := decodeTraceFile(path, &out); err != nil {
		t.Fatal(err)
	}
	got := out.String()
	for _, want := range []string{"4bf92f3577b34da6a3ce929d0e0e4736", "sweep-proxy", "sweepd", "store_read=120"} {
		if !strings.Contains(got, want) {
			t.Errorf("trace table missing %q:\n%s", want, got)
		}
	}

	// Torn JSON must fail loudly with its line number, not render a
	// partial table.
	if err := os.WriteFile(path, []byte(spans[:len(spans)-10]), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := decodeTraceFile(path, &out); err == nil {
		t.Fatal("torn span export decoded without error")
	}
}

func TestBuildGridParsesNewAxes(t *testing.T) {
	g, err := buildGrid("", 1, 42, "", "off", "off", "", "",
		"3, 5", "none, latency ,resilience", "none,5G-edge-upf")
	if err != nil {
		t.Fatal(err)
	}
	if len(g.WiredRounds) != 2 || g.WiredRounds[0] != 3 || g.WiredRounds[1] != 5 {
		t.Fatalf("wired rounds parsed as %v", g.WiredRounds)
	}
	want := []slicing.Strategy{slicing.StrategyNone, slicing.StrategyLatency, slicing.StrategyResilience}
	if len(g.SlicingStrategies) != len(want) {
		t.Fatalf("slicing strategies parsed as %v", g.SlicingStrategies)
	}
	for i, s := range want {
		if g.SlicingStrategies[i] != s {
			t.Fatalf("slicing strategies parsed as %v, want %v", g.SlicingStrategies, want)
		}
	}
	if len(g.ARGameDeployments) != 2 || g.ARGameDeployments[0] != argame.DeployNone ||
		g.ARGameDeployments[1] != argame.DeployEdgeUPF {
		t.Fatalf("AR deployments parsed as %v", g.ARGameDeployments)
	}
}

func TestBuildGridRejectsUnknownAxisValues(t *testing.T) {
	for _, tc := range []struct {
		name                                               string
		profiles, nodes, wiredRounds, slicing, deployments string
	}{
		{name: "bad wired-rounds", wiredRounds: "three"},
		{name: "negative wired-rounds", wiredRounds: "-1"},
		{name: "negative node count", nodes: "-2"},
		{name: "unknown profile", profiles: "6G"},
		{name: "unknown slicing strategy", slicing: "quantum"},
		{name: "unknown AR deployment", deployments: "4G"},
	} {
		if _, err := buildGrid("", 1, 42, tc.profiles, "off", "off", tc.nodes, "",
			tc.wiredRounds, tc.slicing, tc.deployments); err == nil {
			t.Errorf("%s must be rejected", tc.name)
		}
	}
}
