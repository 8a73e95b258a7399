// Package gap performs the Section IV-C analysis: decomposing the
// measured mobile round-trip latency into its architectural components
// (radio access, operator backhaul, transit detour, destination last
// mile), quantifying the excess over the application budgets, and
// reproducing the cited end-to-end decomposition of Fezeu et al. [22]
// (PHY tail percentiles, ~35 ms of application-layer overhead on top of
// the network).
package gap

import (
	"fmt"
	"time"

	"repro/internal/corenet"
	"repro/internal/des"
	"repro/internal/ran"
	"repro/internal/requirements"
	"repro/internal/stats"
	"repro/internal/topo"
)

// Decomposition splits a mobile round trip into components (ms).
type Decomposition struct {
	RadioMs    float64 // scheduling, HARQ, handover at the UE's cell
	BackhaulMs float64 // gNB aggregation to the anchoring UPF (GTP-U)
	DatapathMs float64 // UPF packet processing (both directions)
	TransitMs  float64 // UPF to destination across the public internet
	TotalMs    float64
}

func (d Decomposition) String() string {
	return fmt.Sprintf("radio %.1f + backhaul %.1f + upf %.1f + transit %.1f = %.1f ms",
		d.RadioMs, d.BackhaulMs, d.DatapathMs, d.TransitMs, d.TotalMs)
}

// Decompose computes the expected component split for a UE under the
// given radio conditions, anchored at upf, reaching dst.
func Decompose(up *corenet.UserPlane, prof *ran.Profile, cond ran.Conditions,
	upf *corenet.UPF, dst *topo.Node, offeredMpps float64) (Decomposition, error) {
	sp, err := up.Establish(upf, dst)
	if err != nil {
		return Decomposition{}, err
	}
	ms := func(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
	dec := Decomposition{
		RadioMs:    ms(prof.MeanRTT(cond)),
		BackhaulMs: ms(sp.Backhaul.RTT()),
		DatapathMs: ms(2 * upf.Datapath.Latency(offeredMpps)),
		TransitMs:  ms(sp.Breakout.RTT()),
	}
	dec.TotalMs = dec.RadioMs + dec.BackhaulMs + dec.DatapathMs + dec.TransitMs
	return dec, nil
}

// --- End-to-end decomposition after Fezeu [22] ----------------------------

// AppLayerMs is the mean application-layer overhead Fezeu et al. measured
// on top of the network round trip (~35 ms).
const AppLayerMs = 35.0

// PHYAnchors summarizes the Fezeu PHY-latency tail anchors reproduced by
// the calibrated ran.DefaultPHY distribution.
type PHYAnchors struct {
	Below1msPct float64 // paper: 4.4 %
	Below3msPct float64 // paper: 22.36 %
}

// MeasurePHY estimates the anchors by sampling the PHY distribution.
func MeasurePHY(rng *des.RNG, n int) PHYAnchors {
	if n <= 0 {
		n = 100000
	}
	s := stats.NewSample(n)
	for i := 0; i < n; i++ {
		s.AddDuration(ran.DefaultPHY.Sample(rng))
	}
	return PHYAnchors{
		Below1msPct: s.FractionBelow(1) * 100,
		Below3msPct: s.FractionBelow(3) * 100,
	}
}

// --- Requirement gap -------------------------------------------------------

// Report is the complete Section IV-C gap statement.
type Report struct {
	MeasuredMeanMs float64
	WiredMeanMs    float64
	MobileVsWired  float64
	// ExcessPct is measured against the AR budget (20 ms): the paper's
	// "approximately 270 %".
	ExcessPct float64
	Verdicts  []requirements.Verdict
	Decomp    Decomposition
	PHY       PHYAnchors
	// EndToEndMeanMs includes the Fezeu application layer.
	EndToEndMeanMs float64
}

// Build assembles the gap report from campaign-level aggregates and a
// decomposition of the representative (C2-like) session.
func Build(measuredMean, wiredMean time.Duration, dec Decomposition, phy PHYAnchors) Report {
	mm := float64(measuredMean) / float64(time.Millisecond)
	wm := float64(wiredMean) / float64(time.Millisecond)
	return Report{
		MeasuredMeanMs: mm,
		WiredMeanMs:    wm,
		MobileVsWired:  stats.Ratio(mm, wm),
		ExcessPct:      stats.ExcessPercent(mm, float64(requirements.ARGaming.MaxRTT)/float64(time.Millisecond)),
		Verdicts:       requirements.CheckAll(measuredMean),
		Decomp:         dec,
		PHY:            phy,
		EndToEndMeanMs: mm + AppLayerMs,
	}
}
