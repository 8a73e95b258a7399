package gap

import (
	"time"

	"repro/internal/des"
)

// DominantComponent returns the largest component's name.
func (d Decomposition) DominantComponent() string {
	best, bestMs := "", -1.0
	for _, c := range d.Components() {
		if c.Ms > bestMs {
			best, bestMs = c.Name, c.Ms
		}
	}
	return best
}

// EndToEnd draws a user-experienced latency: network RTT plus
// application-layer overhead (lognormal-ish jitter around AppLayerMs).
func EndToEnd(rng *des.RNG, networkRTT time.Duration) time.Duration {
	app := rng.Normal(AppLayerMs, 6)
	if app < AppLayerMs/3 {
		app = AppLayerMs / 3
	}
	return networkRTT + time.Duration(app*float64(time.Millisecond))
}

// Components returns labelled component values in presentation order.
func (d Decomposition) Components() []struct {
	Name string
	Ms   float64
} {
	return []struct {
		Name string
		Ms   float64
	}{
		{"radio-access", d.RadioMs},
		{"operator-backhaul", d.BackhaulMs},
		{"upf-datapath", d.DatapathMs},
		{"public-transit", d.TransitMs},
	}
}
