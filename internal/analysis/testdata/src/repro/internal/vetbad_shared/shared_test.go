package vetbad

import "repro/internal/sweep"

// Test files may trash a shared result on purpose (that is how the
// contract's tests prove it): the check skips them.
func trashInTest(c *sweep.Cache, sc sweep.Scenario) {
	res, _, _ := c.Resolve(sc, sweep.Want{})
	res.TotalMeasurements = 0
	res.Samples["C3"].Quantile(0.5)
}
