// Package vetbad seeds writes through a shared cached result, next to
// the tolerated shapes: reads, raw resolves, private clones, value
// copies, rebinding, and an annotated site.
package vetbad

import (
	"repro/internal/campaign"
	"repro/internal/sweep"
)

func writes(c *sweep.Cache, cfg campaign.Config) {
	res, _, _ := c.Resolve(cfg, sweep.Want{})
	res.TotalMeasurements = 0       // want `assignment to res\.TotalMeasurements writes through a shared cached result`
	res.TotalMeasurements++         // want `\+\+ on res\.TotalMeasurements`
	res.Reports[0].N += 1           // want `assignment to res\.Reports\[0\]\.N`
	res.Samples["C3"] = nil         // want `assignment to res\.Samples\["C3"\]`
	delete(res.Samples, "C3")       // want `delete on res\.Samples`
	res.MobileAll.Add(1)            // want `call to res\.MobileAll\.Add`
	res.Samples["C3"].Quantile(0.5) // want `call to res\.Samples\["C3"\]\.Quantile`
	for _, s := range res.Samples {
		s.Median()     // want `call to s\.Median`
		s.CDF(1)       // want `call to s\.CDF`
		s.Histogram(4) // want `call to s\.Histogram`
	}
	s, ok := res.Samples["C3"]
	if ok {
		s.FractionBelow(3) // want `call to s\.FractionBelow`
		s.AddDuration(7)   // want `call to s\.AddDuration`
	}
	alias := res
	alias.Config.Seed = 9 // want `assignment to alias\.Config\.Seed`
	reports := res.Reports
	reports[1] = campaign.CellReport{} // want `assignment to reports\[1\]`
}

func declared(c *sweep.Cache, cfg campaign.Config, want sweep.Want) {
	var res, _, _ = c.Resolve(cfg, sweep.Want{Raw: false})
	res.TotalMeasurements = 1 // want `assignment to res\.TotalMeasurements`
	other, _, _ := c.Resolve(cfg, want)
	other.TotalMeasurements = 1 // want `assignment to other\.TotalMeasurements`
}

func tolerated(c *sweep.Cache, cfg campaign.Config) int {
	res, _, _ := c.Resolve(cfg, sweep.Want{})
	n := res.TotalMeasurements + len(res.Reports)
	_ = res.Samples["C3"].Values()
	_ = res.MobileAll.Mean()

	raw, _, _ := c.Resolve(cfg, sweep.Want{Raw: true})
	raw.TotalMeasurements = 0
	raw.Samples["C3"].Quantile(0.5)

	own := res.Clone()
	own.TotalMeasurements = 0

	rep := res.Reports[0]
	rep.N = 0
	sum := res.MobileAll
	sum.Add(1)

	res, _, _ = c.Resolve(cfg, sweep.Want{})
	res.TotalMeasurements = -1 //sweepvet:allow(sharedresult) fixture: an argued exception
	return n
}
