// Package vetbad seeds writes through a shared cached result and shared
// rendered bytes, next to the tolerated shapes: reads, raw resolves,
// private clones, value copies, rebinding, appends that copy, and
// annotated sites.
package vetbad

import (
	"repro/internal/campaign"
	"repro/internal/sweep"
)

func writes(c *sweep.Cache, sc sweep.Scenario) {
	res, _, _ := c.Resolve(sc, sweep.Want{})
	res.TotalMeasurements = 0       // want `assignment to res\.TotalMeasurements writes through a shared cached result`
	res.TotalMeasurements++         // want `\+\+ on res\.TotalMeasurements`
	res.Reports[0].N += 1           // want `assignment to res\.Reports\[0\]\.N`
	res.Samples["C3"] = nil         // want `assignment to res\.Samples\["C3"\]`
	delete(res.Samples, "C3")       // want `delete on res\.Samples`
	res.MobileAll.Add(1)            // want `call to res\.MobileAll\.Add`
	res.Samples["C3"].Quantile(0.5) // want `call to res\.Samples\["C3"\]\.Quantile`
	for _, s := range res.Samples {
		s.Quantile(0.9) // want `call to s\.Quantile`
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

func declared(c *sweep.Cache, sc sweep.Scenario, want sweep.Want) {
	var res, _, _ = c.Resolve(sc, sweep.Want{Raw: false})
	res.TotalMeasurements = 1 // want `assignment to res\.TotalMeasurements`
	other, _, _ := c.Resolve(sc, want)
	other.TotalMeasurements = 1 // want `assignment to other\.TotalMeasurements`
}

func tolerated(c *sweep.Cache, sc sweep.Scenario) int {
	res, _, _ := c.Resolve(sc, sweep.Want{})
	n := res.TotalMeasurements + len(res.Reports)
	_ = res.Samples["C3"].Values()
	_ = res.MobileAll.Mean()

	raw, _, _ := c.Resolve(sc, sweep.Want{Raw: true})
	raw.TotalMeasurements = 0
	raw.Samples["C3"].Quantile(0.5)

	own := res.Clone()
	own.TotalMeasurements = 0

	rep := res.Reports[0]
	rep.N = 0
	sum := res.MobileAll
	sum.Add(1)

	res, _, _ = c.Resolve(sc, sweep.Want{})
	res.TotalMeasurements = -1 //sweepvet:allow(sharedresult) fixture: an argued exception
	return n
}

func render() []byte { return []byte("{}\n") }

func renderedWrites(c *sweep.Cache, id string) {
	b := c.Rendered(id, sweep.EncodingJSON, render)
	b[0] = '['             // want `assignment to b\[0\] writes through a shared cached result`
	b[len(b)-1]++          // want `\+\+ on b\[len\(b\) - 1\]`
	copy(b, "[]")          // want `copy on b`
	copy(b[1:], "x")       // want `copy on b\[1:\]`
	_ = append(b[:1], 'x') // want `append onto b\[:1\]`
	tail := b[1:]
	tail[0] = ' ' // want `assignment to tail\[0\]`
	var frame = c.Rendered(id, sweep.EncodingTLV, render)
	frame[0] = 0 // want `assignment to frame\[0\]`
}

func renderedTolerated(c *sweep.Cache, id string, dst []byte) int {
	b := c.Rendered(id, sweep.EncodingJSON, render)
	n := len(b) + int(b[0])
	copy(dst, b)
	line := append(b, '\n') // capacity equals length: append copies
	line[0] = '['
	own := append([]byte(nil), b...)
	own[0] = '['
	b[0] = '[' //sweepvet:allow(sharedresult) fixture: an argued exception
	return n
}
