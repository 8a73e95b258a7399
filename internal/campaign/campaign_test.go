package campaign

import (
	"reflect"
	"sync"
	"testing"
	"time"

	"repro/internal/geo"
	"repro/internal/ran"
)

// runOnce caches the default campaign across tests (it is deterministic).
var cached *Result

func defaultRun(t *testing.T) *Result {
	t.Helper()
	if cached != nil {
		return cached
	}
	res, err := Run(Config{Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	cached = res
	return res
}

func TestFigure2Bands(t *testing.T) {
	res := defaultRun(t)
	// Paper: mean RTL ranges from 61 ms (C1) to 110 ms (C3).
	if res.MinMean.Cell.String() != "C1" {
		t.Errorf("min-latency cell = %v, paper reports C1", res.MinMean.Cell)
	}
	if res.MaxMean.Cell.String() != "C3" {
		t.Errorf("max-latency cell = %v, paper reports C3", res.MaxMean.Cell)
	}
	if res.MinMean.MeanMs < 55 || res.MinMean.MeanMs > 67 {
		t.Errorf("min mean = %.1f ms, paper: 61", res.MinMean.MeanMs)
	}
	if res.MaxMean.MeanMs < 100 || res.MaxMean.MeanMs > 118 {
		t.Errorf("max mean = %.1f ms, paper: 110", res.MaxMean.MeanMs)
	}
	// Every reported cell inside a generous band around the paper's range.
	for _, rep := range res.Reports {
		if !rep.Reported {
			continue
		}
		if rep.MeanMs < 50 || rep.MeanMs > 120 {
			t.Errorf("cell %v mean %.1f ms outside plausible range", rep.Cell, rep.MeanMs)
		}
	}
}

func TestFigure3Bands(t *testing.T) {
	res := defaultRun(t)
	// Paper: std-dev spans 1.8 ms (B3) to 46.4 ms (E5).
	if res.MinStd.Cell.String() != "B3" {
		t.Errorf("most stable cell = %v, paper reports B3", res.MinStd.Cell)
	}
	if res.MaxStd.Cell.String() != "E5" {
		t.Errorf("most volatile cell = %v, paper reports E5", res.MaxStd.Cell)
	}
	if res.MinStd.StdMs < 1.0 || res.MinStd.StdMs > 3.0 {
		t.Errorf("min std = %.2f ms, paper: 1.8", res.MinStd.StdMs)
	}
	if res.MaxStd.StdMs < 33 || res.MaxStd.StdMs > 60 {
		t.Errorf("max std = %.1f ms, paper: 46.4", res.MaxStd.StdMs)
	}
}

func TestSparseCellsReportZero(t *testing.T) {
	res := defaultRun(t)
	zeros := 0
	for _, rep := range res.Reports {
		if rep.Reported {
			continue
		}
		zeros++
		if rep.N >= MinMeasurements {
			t.Errorf("cell %v has %d samples but is unreported", rep.Cell, rep.N)
		}
		if rep.MeanMs != 0 || rep.StdMs != 0 {
			t.Errorf("unreported cell %v should render as 0.0", rep.Cell)
		}
	}
	if zeros < 3 {
		t.Errorf("only %d zero cells; the paper shows several", zeros)
	}
	// Paper: 0.0 cells occur *primarily* in border regions — require a
	// strict majority on the outer ring.
	border := 0
	for _, rep := range res.Reports {
		if !rep.Reported && res.Grid.IsBorder(rep.Cell) {
			border++
		}
	}
	if 2*border <= zeros {
		t.Errorf("only %d of %d zero cells on the border", border, zeros)
	}
	// All 33 traversal cells appear in the report.
	if len(res.Reports) != geo.TraversalCellCount {
		t.Errorf("reports cover %d cells, want %d", len(res.Reports), geo.TraversalCellCount)
	}
}

func TestMobileVsWiredFactor(t *testing.T) {
	res := defaultRun(t)
	// Paper: "the mean round-trip time latency for mobile nodes surpasses
	// that of wired nodes by a factor of seven".
	f := res.MobileVsWiredFactor()
	if f < 6 || f > 9 {
		t.Errorf("mobile/wired factor = %.2f, paper: ~7", f)
	}
	if res.Wired.N() == 0 {
		t.Fatal("wired baseline empty")
	}
	if res.Wired.Mean() < 7 || res.Wired.Mean() > 14 {
		t.Errorf("wired mean = %.1f ms, want ~10", res.Wired.Mean())
	}
}

func TestRequirementExcess(t *testing.T) {
	res := defaultRun(t)
	// Paper: measurements exceed the 20 ms requirement by ~270 %.
	excess := (res.MobileAll.Mean() - 20) / 20 * 100
	if excess < 230 || excess > 350 {
		t.Errorf("requirement excess = %.0f%%, paper: ~270%%", excess)
	}
}

func TestDeterminismAcrossRuns(t *testing.T) {
	a, err := Run(Config{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(Config{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if a.TotalMeasurements != b.TotalMeasurements {
		t.Fatal("measurement counts differ across identical runs")
	}
	for i := range a.Reports {
		if a.Reports[i] != b.Reports[i] {
			t.Fatalf("cell %v differs across identical runs", a.Reports[i].Cell)
		}
	}
}

func TestSeedSensitivityStaysInBand(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-seed campaign in short mode")
	}
	for _, seed := range []uint64{1, 99, 2025} {
		res, err := Run(Config{Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		if res.MinMean.MeanMs < 52 || res.MinMean.MeanMs > 70 {
			t.Errorf("seed %d: min mean %.1f out of band", seed, res.MinMean.MeanMs)
		}
		if res.MaxMean.MeanMs < 98 || res.MaxMean.MeanMs > 122 {
			t.Errorf("seed %d: max mean %.1f out of band", seed, res.MaxMean.MeanMs)
		}
		f := res.MobileVsWiredFactor()
		if f < 5.5 || f > 9.5 {
			t.Errorf("seed %d: factor %.2f out of band", seed, f)
		}
	}
}

func TestLocalPeeringCollapsesLatency(t *testing.T) {
	base := defaultRun(t)
	peered, err := Run(Config{Seed: 42, LocalPeering: true})
	if err != nil {
		t.Fatal(err)
	}
	// Peering removes the Vienna->Prague->Bucharest detour but the
	// traffic still climbs to the central UPF: a large but not total
	// reduction of the wired component.
	if peered.MobileAll.Mean() >= base.MobileAll.Mean()-15 {
		t.Errorf("peering: mean %.1f vs baseline %.1f, want >= 15 ms lower",
			peered.MobileAll.Mean(), base.MobileAll.Mean())
	}
	// The wired probes already reach each other over local ISP paths, so
	// mobile-side peering must leave the wired baseline untouched.
	if diff := peered.Wired.Mean() - base.Wired.Mean(); diff > 0.5 || diff < -0.5 {
		t.Errorf("peered wired mean %.1f deviates from baseline %.1f",
			peered.Wired.Mean(), base.Wired.Mean())
	}
}

func TestEdgeUPFPlusURLLCMeetsBudget(t *testing.T) {
	res, err := Run(Config{
		Seed:         42,
		Profile:      ran.Profile5GURLLC,
		EdgeUPF:      true,
		LocalPeering: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Section V-B: edge anchoring turns the >60 ms RTL into single-digit
	// milliseconds even measured against the sector probes.
	if res.MobileAll.Mean() > 20 {
		t.Errorf("edge+slice campaign mean = %.1f ms, want < 20", res.MobileAll.Mean())
	}
}

func TestConfigValidationErrors(t *testing.T) {
	if _, err := Run(Config{Seed: 1, TargetCells: []string{"Z9"}}); err == nil {
		t.Fatal("out-of-grid target should fail")
	}
	if _, err := Run(Config{Seed: 1, TargetCells: []string{"bogus"}}); err == nil {
		t.Fatal("malformed target should fail")
	}
}

// TestRunRejectsNegativeCounts: a negative node or wired-round count is
// an error, not a panic sizing the ping streams (and not a campaign
// that silently measures nothing).
func TestRunRejectsNegativeCounts(t *testing.T) {
	for _, cfg := range []Config{
		{Seed: 1, MobileNodes: -2},
		{Seed: 1, WiredRounds: -1},
	} {
		if _, err := Run(cfg); err == nil {
			t.Fatalf("Run(%+v): err = nil, want an error", cfg)
		}
	}
}

func TestVirtualDurationPlausible(t *testing.T) {
	res := defaultRun(t)
	if res.VirtualDuration < time.Hour || res.VirtualDuration > 8*time.Hour {
		t.Errorf("virtual campaign duration = %v", res.VirtualDuration)
	}
	if res.TotalMeasurements < 3000 {
		t.Errorf("only %d measurements", res.TotalMeasurements)
	}
}

// TestConcurrentRunsMatchSequential runs two configs at once and
// compares each with its sequential twin. Runs of one shape share its
// world, so under -race this also proves a run writes nothing a
// concurrent run reads.
func TestConcurrentRunsMatchSequential(t *testing.T) {
	cfgs := []Config{
		{Seed: 3, LocalPeering: true, TargetCells: []string{"B2", "E2"}},
		{Seed: 4, EdgeUPF: true, MobileNodes: 1, WiredRounds: 2},
	}
	want := make([]*Result, len(cfgs))
	for i, cfg := range cfgs {
		res, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = res
	}
	got := make([]*Result, len(cfgs))
	errs := make([]error, len(cfgs))
	var wg sync.WaitGroup
	for i, cfg := range cfgs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i], errs[i] = Run(cfg)
		}()
	}
	wg.Wait()
	for i := range cfgs {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		if !reflect.DeepEqual(got[i], want[i]) {
			t.Errorf("config %d: concurrent run differs from the sequential run", i)
		}
	}
}
