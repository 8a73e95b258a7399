package vetbad

import (
	"repro/internal/campaign"
	"repro/internal/sweep"
)

// Test files may trash a shared result on purpose (that is how the
// contract's tests prove it): the check skips them.
func trashInTest(c *sweep.Cache, cfg campaign.Config) {
	res, _, _ := c.Resolve(cfg, sweep.Want{})
	res.TotalMeasurements = 0
	res.Samples["C3"].Quantile(0.5)
}
