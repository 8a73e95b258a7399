package sixgedge

// Ablation benchmarks for the calibrated design choices DESIGN.md calls
// out: each ablation removes or sweeps one mechanism and reports how the
// paper-facing metric moves. Run with:
//
//	go test -bench=Ablation -benchmem
import (
	"testing"
	"time"

	"repro/internal/campaign"
	"repro/internal/corenet"
	"repro/internal/geo"
	"repro/internal/ran"
)

// BenchmarkAblationHubSite removes the centred B3 macro hub (the
// mechanism behind Figure 3's 1.8 ms floor) and reports how the most
// stable cell's sigma moves: without a perfectly-centred site, every
// cell keeps residual HARQ dispersion.
func BenchmarkAblationHubSite(b *testing.B) {
	grid := geo.NewKlagenfurtGrid()
	b3, _ := geo.ParseCellID("B3")
	cond := func(layout []geo.GNBSite) ran.Conditions {
		saved := geo.GNBSiteLayout
		geo.GNBSiteLayout = layout
		defer func() { geo.GNBSiteLayout = saved }()
		m := geo.NewKlagenfurtDensity(grid)
		return ran.Conditions{Load: m.LoadFactor(b3), SiteKm: geo.NearestSiteKm(grid, b3)}
	}

	withHub := cond(geo.GNBSiteLayout)
	var offset []geo.GNBSite
	for _, s := range geo.GNBSiteLayout {
		if s.Cell == "B3" {
			s.EastKm, s.SouthKm = 0.5, 0.15 // push the hub to the cell edge
		}
		offset = append(offset, s)
	}
	withoutHub := cond(offset)

	var a, c time.Duration
	for i := 0; i < b.N; i++ {
		a = ran.Profile5G.StdRTT(withHub)
		c = ran.Profile5G.StdRTT(withoutHub)
	}
	b.ReportMetric(float64(a)/float64(time.Millisecond), "hub-sigma-ms")
	b.ReportMetric(float64(c)/float64(time.Millisecond), "no-hub-sigma-ms")
	if c <= a {
		b.Fatal("ablation lost its effect: offset hub should raise sigma")
	}
}

// BenchmarkAblationHandoverCube sweeps the handover-probability cube
// coefficient and reports sigma at E5's conditions: the knob behind
// Figure 3's 46.4 ms extreme.
func BenchmarkAblationHandoverCube(b *testing.B) {
	grid := geo.NewKlagenfurtGrid()
	m := geo.NewKlagenfurtDensity(grid)
	e5, _ := geo.ParseCellID("E5")
	cond := ran.Conditions{Load: m.LoadFactor(e5), SiteKm: geo.NearestSiteKm(grid, e5)}
	for _, coef := range []float64{0, 0.004, 0.0075, 0.015} {
		coef := coef
		name := "coef-zero"
		switch coef {
		case 0.004:
			name = "coef-half"
		case 0.0075:
			name = "coef-calibrated"
		case 0.015:
			name = "coef-double"
		}
		b.Run(name, func(b *testing.B) {
			prof := *ran.Profile5G
			prof.HandoverCubeCoef = coef
			var sd time.Duration
			for i := 0; i < b.N; i++ {
				sd = prof.StdRTT(cond)
			}
			b.ReportMetric(float64(sd)/float64(time.Millisecond), "e5-sigma-ms")
		})
	}
}

// BenchmarkAblationLoadCoef sweeps the congestion coefficient and reports
// the C1..C3 spread (Figure 2's 61 -> 110 ms range is ~80 % load-driven).
func BenchmarkAblationLoadCoef(b *testing.B) {
	grid := geo.NewKlagenfurtGrid()
	m := geo.NewKlagenfurtDensity(grid)
	c1, _ := geo.ParseCellID("C1")
	c3, _ := geo.ParseCellID("C3")
	condC1 := ran.Conditions{Load: m.LoadFactor(c1), SiteKm: geo.NearestSiteKm(grid, c1)}
	condC3 := ran.Conditions{Load: m.LoadFactor(c3), SiteKm: geo.NearestSiteKm(grid, c3)}
	for _, coef := range []time.Duration{26 * time.Millisecond, 52 * time.Millisecond, 104 * time.Millisecond} {
		coef := coef
		b.Run(coef.String(), func(b *testing.B) {
			prof := *ran.Profile5G
			prof.LoadCoef = coef
			var spread time.Duration
			for i := 0; i < b.N; i++ {
				spread = prof.MeanRTT(condC3) - prof.MeanRTT(condC1)
			}
			b.ReportMetric(float64(spread)/float64(time.Millisecond), "c1-c3-spread-ms")
		})
	}
}

// BenchmarkAblationRemedyLadder runs the campaign under each remedy
// combination: the Section V story as one sweep.
func BenchmarkAblationRemedyLadder(b *testing.B) {
	cases := []struct {
		name string
		cfg  campaign.Config
	}{
		{"baseline", campaign.Config{Seed: 42}},
		{"peering", campaign.Config{Seed: 42, LocalPeering: true}},
		{"edge-upf", campaign.Config{Seed: 42, EdgeUPF: true, LocalPeering: true, Profile: ran.Profile5GURLLC}},
		{"sixg", campaign.Config{Seed: 42, EdgeUPF: true, LocalPeering: true, Profile: ran.Profile6G}},
	}
	for _, tc := range cases {
		tc := tc
		b.Run(tc.name, func(b *testing.B) {
			var mean float64
			for i := 0; i < b.N; i++ {
				res, err := campaign.Run(tc.cfg)
				if err != nil {
					b.Fatal(err)
				}
				mean = res.MobileAll.Mean()
			}
			b.ReportMetric(mean, "mean-rtl-ms")
		})
	}
}

// BenchmarkAblationDatapathLoad sweeps offered load over both UPF
// datapaths: the SmartNIC's 2x capacity moves the saturation knee.
func BenchmarkAblationDatapathLoad(b *testing.B) {
	for _, load := range []float64{0.4, 1.2, 2.0, 3.0} {
		load := load
		for _, dp := range []corenet.DatapathSpec{corenet.HostDatapath, corenet.SmartNICDatapath} {
			dp := dp
			b.Run(dp.Name+"-"+time.Duration(int64(load*1000)).String(), func(b *testing.B) {
				var l time.Duration
				for i := 0; i < b.N; i++ {
					l = dp.Latency(load)
				}
				b.ReportMetric(float64(l)/1000, "us-per-pkt")
				b.ReportMetric(boolMetric(load > dp.CapacityMpps), "saturated")
			})
		}
	}
}

func boolMetric(v bool) float64 {
	if v {
		return 1
	}
	return 0
}
