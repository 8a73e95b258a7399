package campaign

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"strings"
	"testing"

	"repro/internal/stats"
)

func TestExportRoundTrip(t *testing.T) {
	res := defaultRun(t)
	var buf bytes.Buffer
	if err := res.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	e, err := LoadExport(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if e.Seed != res.Config.Seed || e.Measurements != res.TotalMeasurements {
		t.Fatal("round trip lost campaign identity")
	}
	if len(e.Cells) != len(res.Reports) {
		t.Fatalf("exported %d cells, want %d", len(e.Cells), len(res.Reports))
	}
	if e.MinMeanCell != res.MinMean.Cell.String() || e.MaxMeanCell != res.MaxMean.Cell.String() {
		t.Fatal("extremes lost in export")
	}
	if e.Profile != "5G-public" {
		t.Fatalf("profile name = %q", e.Profile)
	}
}

func TestExportStableFieldNames(t *testing.T) {
	// The state round-trip tests compare results by these bytes, so
	// the keys they are built from stay pinned.
	res := defaultRun(t)
	var buf bytes.Buffer
	if err := res.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	s := buf.String()
	for _, key := range []string{
		`"seed"`, `"cells"`, `"mean_ms"`, `"std_ms"`, `"reported"`,
		`"mobile_vs_wired_factor"`, `"min_mean_cell"`, `"max_std_cell"`,
	} {
		if !strings.Contains(s, key) {
			t.Errorf("export missing key %s", key)
		}
	}
}

func TestLoadExportRejectsGarbage(t *testing.T) {
	if _, err := LoadExport(strings.NewReader("{nope")); err == nil {
		t.Fatal("garbage should not parse")
	}
}

func TestRunSeedsRobustness(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-seed robustness in short mode")
	}
	seeds := []uint64{11, 22, 33, 44}
	var minMean, maxMean, factor stats.Summary
	consistent := 0
	for _, s := range seeds {
		res, err := Run(Config{Seed: s})
		if err != nil {
			t.Fatalf("seed %d: %v", s, err)
		}
		minMean.Add(res.MinMean.MeanMs)
		maxMean.Add(res.MaxMean.MeanMs)
		factor.Add(res.MobileVsWiredFactor())
		if res.MinMean.Cell.String() == "C1" {
			consistent++
		}
		if res.MaxMean.Cell.String() == "C3" {
			consistent++
		}
	}
	// Band stability across seeds.
	if minMean.Min() < 52 || minMean.Max() > 70 {
		t.Errorf("min-mean band across seeds: [%.1f, %.1f]", minMean.Min(), minMean.Max())
	}
	if maxMean.Min() < 98 || maxMean.Max() > 122 {
		t.Errorf("max-mean band across seeds: [%.1f, %.1f]", maxMean.Min(), maxMean.Max())
	}
	if factor.Min() < 5.5 || factor.Max() > 9.5 {
		t.Errorf("factor band across seeds: [%.2f, %.2f]", factor.Min(), factor.Max())
	}
	// The extreme cells are a mechanism, not luck: require > 75 %
	// argmin/argmax consistency (C1 the min-mean cell, C3 the max).
	if c := float64(consistent) / float64(2*len(seeds)); c < 0.75 {
		t.Errorf("extreme-cell consistency = %.2f", c)
	}
}

// Export is a JSON summary of a campaign result: derived statistics
// only, no raw samples. The state round-trip tests compare results by
// these bytes.
type Export struct {
	Seed         uint64       `json:"seed"`
	MobileNodes  int          `json:"mobile_nodes"`
	Profile      string       `json:"radio_profile"`
	LocalPeering bool         `json:"local_peering"`
	EdgeUPF      bool         `json:"edge_upf"`
	Cells        []CellExport `json:"cells"`
	MobileMeanMs float64      `json:"mobile_mean_ms"`
	WiredMeanMs  float64      `json:"wired_mean_ms"`
	Factor       float64      `json:"mobile_vs_wired_factor"`
	Measurements int          `json:"measurements"`
	VirtualSecs  float64      `json:"virtual_seconds"`
	MinMeanCell  string       `json:"min_mean_cell"`
	MaxMeanCell  string       `json:"max_mean_cell"`
	MinStdCell   string       `json:"min_std_cell"`
	MaxStdCell   string       `json:"max_std_cell"`
}

// CellExport is one cell's reported statistics.
type CellExport struct {
	Cell     string  `json:"cell"`
	N        int     `json:"n"`
	MeanMs   float64 `json:"mean_ms"`
	StdMs    float64 `json:"std_ms"`
	Reported bool    `json:"reported"`
}

// Export converts the result into its serializable form.
func (r *Result) Export() Export {
	e := Export{
		Seed:         r.Config.Seed,
		MobileNodes:  r.Config.MobileNodes,
		Profile:      r.Config.Profile.Name,
		LocalPeering: r.Config.LocalPeering,
		EdgeUPF:      r.Config.EdgeUPF,
		MobileMeanMs: r.MobileAll.Mean(),
		WiredMeanMs:  r.Wired.Mean(),
		Factor:       r.MobileVsWiredFactor(),
		Measurements: r.TotalMeasurements,
		VirtualSecs:  r.VirtualDuration.Seconds(),
		MinMeanCell:  r.MinMean.Cell.String(),
		MaxMeanCell:  r.MaxMean.Cell.String(),
		MinStdCell:   r.MinStd.Cell.String(),
		MaxStdCell:   r.MaxStd.Cell.String(),
	}
	for _, rep := range r.Reports {
		e.Cells = append(e.Cells, CellExport{
			Cell: rep.Cell.String(), N: rep.N,
			MeanMs: rep.MeanMs, StdMs: rep.StdMs, Reported: rep.Reported,
		})
	}
	return e
}

// WriteJSON serializes the result to w with indentation.
func (r *Result) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(r.Export()); err != nil {
		return fmt.Errorf("campaign: encode: %w", err)
	}
	return nil
}

// LoadExport parses a previously written export.
func LoadExport(rd io.Reader) (Export, error) {
	var e Export
	if err := json.NewDecoder(rd).Decode(&e); err != nil {
		return Export{}, fmt.Errorf("campaign: decode: %w", err)
	}
	return e, nil
}
