package probe

import (
	"time"

	"repro/internal/corenet"
	"repro/internal/des"
	"repro/internal/ran"
	"repro/internal/topo"
)

// WiredRTT measures one wired round trip between two hosts over the
// policy-routed path.
func (e *Engine) WiredRTT(rng *des.RNG, from, to *topo.Node) (time.Duration, error) {
	p, err := e.WiredPath(from, to)
	if err != nil {
		return 0, err
	}
	return e.WiredRTTOn(rng, p), nil
}

// MobileRTT measures one round trip from a mobile UE (attached under the
// given radio conditions, anchored at upf) to a wired destination.
func (e *Engine) MobileRTT(rng *des.RNG, cond ran.Conditions, upf *corenet.UPF,
	dst *topo.Node) (time.Duration, error) {
	sp, err := e.UP.Establish(upf, dst)
	if err != nil {
		return 0, err
	}
	return e.MobileRTTOn(rng, cond, sp), nil
}

// MobileMeanRTT returns the analytic expectation of MobileRTT (wired
// jitter is zero-mean-ish and excluded).
func (e *Engine) MobileMeanRTT(cond ran.Conditions, upf *corenet.UPF,
	dst *topo.Node) (time.Duration, error) {
	sp, err := e.UP.Establish(upf, dst)
	if err != nil {
		return 0, err
	}
	return e.UP.MeanRTT(e.Profile, cond, sp, e.OfferedMpps), nil
}
