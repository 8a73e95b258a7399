// Package ran models the radio access network: the per-UE latency
// contribution of a 5G (or 6G) radio leg, parameterized by cell load and
// distance to the serving gNB site.
//
// The access model decomposes a round-trip radio contribution into:
//
//   - a fixed scheduling/processing floor (SR + UL grant + PHY + core
//     stack traversal, both directions);
//   - a congestion term that grows with the cell's load factor
//     (scheduler queueing at loaded sites — the Figure 2 mechanism);
//   - HARQ retransmissions whose expected count grows with the distance
//     to the serving site (SINR degradation — part of the Figure 3
//     dispersion mechanism);
//   - rare handover / cell-reselection interruptions whose probability
//     grows steeply with site distance (the dominant Figure 3 mechanism:
//     cell-edge UEs like those in E5 occasionally stall for ~100-200 ms).
//
// The PHY-only distribution is calibrated against Fezeu et al. [22]:
// roughly 4.4 % of packets below 1 ms and 22.36 % below 3 ms.
package ran

import (
	"fmt"
	"math"
	"time"

	"repro/internal/des"
)

// Conditions captures the radio situation of one UE attachment.
type Conditions struct {
	Load   float64 // cell load factor in [0, 1]
	SiteKm float64 // distance to the serving gNB site in km
}

// Profile is a radio technology / deployment latency profile. All
// durations describe the *round-trip* radio contribution of one UE leg.
type Profile struct {
	Name string
	// BaseRTT is the unloaded scheduling + PHY + stack floor.
	BaseRTT time.Duration
	// BaseSigmaMs is the standard deviation of the baseline jitter (ms).
	BaseSigmaMs float64
	// LoadCoef is the mean congestion delay at full load; the realized
	// delay is nearly deterministic for a persistently loaded cell
	// (relative sigma LoadRelSigma).
	LoadCoef     time.Duration
	LoadRelSigma float64
	// RetxPerKm is the expected number of HARQ retransmissions per km of
	// site distance; each retransmission costs Uniform[RetxLo, RetxHi].
	RetxPerKm      float64
	RetxLo, RetxHi time.Duration
	// HandoverCubeCoef scales the cubic growth of the handover /
	// reselection probability with site distance: p = min(HandoverCap,
	// coef * km^3). A handover stall costs Uniform[HOLo, HOHi].
	HandoverCubeCoef float64
	HandoverCap      float64
	HOLo, HOHi       time.Duration
}

// Profile5G is the public consumer 5G (NSA-style) profile calibrated so
// that the Klagenfurt campaign reproduces the paper's Figure 2/3 bands.
var Profile5G = &Profile{
	Name:             "5G-public",
	BaseRTT:          15400 * time.Microsecond,
	BaseSigmaMs:      1.1,
	LoadCoef:         52 * time.Millisecond,
	LoadRelSigma:     0.03,
	RetxPerKm:        0.8,
	RetxLo:           4 * time.Millisecond,
	RetxHi:           6 * time.Millisecond,
	HandoverCubeCoef: 0.0075,
	HandoverCap:      0.14,
	HOLo:             90 * time.Millisecond,
	HOHi:             240 * time.Millisecond,
}

// Profile5GURLLC is a dedicated-slice 5G profile: mini-slot scheduling,
// configured grants and a protected share of PRBs. It is the radio leg
// the Section V-B UPF-integration scenario assumes (Barrachina [30],
// Goshi [31]: 5-6.2 ms end-to-end including an edge UPF).
var Profile5GURLLC = &Profile{
	Name:             "5G-URLLC-slice",
	BaseRTT:          4200 * time.Microsecond,
	BaseSigmaMs:      0.35,
	LoadCoef:         1500 * time.Microsecond,
	LoadRelSigma:     0.10,
	RetxPerKm:        0.15,
	RetxLo:           1 * time.Millisecond,
	RetxHi:           2 * time.Millisecond,
	HandoverCubeCoef: 0.0005,
	HandoverCap:      0.01,
	HOLo:             10 * time.Millisecond,
	HOHi:             30 * time.Millisecond,
}

// Profile6G is the 6G target profile: ~100 microsecond air latency [5]
// with sub-millisecond worst cases.
var Profile6G = &Profile{
	Name:             "6G-target",
	BaseRTT:          200 * time.Microsecond,
	BaseSigmaMs:      0.02,
	LoadCoef:         400 * time.Microsecond,
	LoadRelSigma:     0.10,
	RetxPerKm:        0.05,
	RetxLo:           100 * time.Microsecond,
	RetxHi:           200 * time.Microsecond,
	HandoverCubeCoef: 0.0001,
	HandoverCap:      0.002,
	HOLo:             1 * time.Millisecond,
	HOHi:             3 * time.Millisecond,
}

// Profiles lists the built-in radio profiles in ladder order: public 5G,
// the dedicated URLLC slice, and the 6G target.
var Profiles = []*Profile{Profile5G, Profile5GURLLC, Profile6G}

// ProfileByName resolves a built-in profile by its Name (e.g. as parsed
// from a sweep CLI axis).
func ProfileByName(name string) (*Profile, bool) {
	for _, p := range Profiles {
		if p.Name == name {
			return p, true
		}
	}
	return nil, false
}

func (p *Profile) String() string { return p.Name }

func (p *Profile) validate(c Conditions) Conditions {
	if c.Load < 0 {
		c.Load = 0
	}
	if c.Load > 1 {
		c.Load = 1
	}
	if c.SiteKm < 0 {
		c.SiteKm = 0
	}
	return c
}

// HandoverProb returns the probability that a given exchange is hit by a
// handover / reselection stall under the given conditions.
func (p *Profile) HandoverProb(c Conditions) float64 {
	c = p.validate(c)
	prob := p.HandoverCubeCoef * c.SiteKm * c.SiteKm * c.SiteKm
	if prob > p.HandoverCap {
		prob = p.HandoverCap
	}
	return prob
}

// SampleRTT draws one radio round-trip contribution for a UE leg.
func (p *Profile) SampleRTT(rng *des.RNG, c Conditions) time.Duration {
	c = p.validate(c)
	ms := float64(p.BaseRTT) / float64(time.Millisecond)

	// Baseline jitter (never lets the sample fall below half the floor).
	ms += rng.Normal(0, p.BaseSigmaMs)

	// Persistent congestion: near-deterministic for a loaded cell.
	loadMean := c.Load * float64(p.LoadCoef) / float64(time.Millisecond)
	if loadMean > 0 {
		ms += math.Max(0, rng.Normal(loadMean, loadMean*p.LoadRelSigma))
	}

	// HARQ retransmissions.
	retx := rng.Poisson(p.RetxPerKm * c.SiteKm)
	for i := 0; i < retx; i++ {
		ms += rng.Uniform(float64(p.RetxLo)/float64(time.Millisecond),
			float64(p.RetxHi)/float64(time.Millisecond))
	}

	// Handover / reselection stall.
	if rng.Bernoulli(p.HandoverProb(c)) {
		ms += rng.Uniform(float64(p.HOLo)/float64(time.Millisecond),
			float64(p.HOHi)/float64(time.Millisecond))
	}

	floor := float64(p.BaseRTT) / float64(time.Millisecond) / 2
	if ms < floor {
		ms = floor
	}
	return time.Duration(ms * float64(time.Millisecond))
}

// MeanRTT returns the analytical expectation of SampleRTT, used for
// calibration and as a property-test oracle.
func (p *Profile) MeanRTT(c Conditions) time.Duration {
	c = p.validate(c)
	ms := float64(p.BaseRTT) / float64(time.Millisecond)
	ms += c.Load * float64(p.LoadCoef) / float64(time.Millisecond)
	retxMean := (float64(p.RetxLo) + float64(p.RetxHi)) / 2 / float64(time.Millisecond)
	ms += p.RetxPerKm * c.SiteKm * retxMean
	hoMean := (float64(p.HOLo) + float64(p.HOHi)) / 2 / float64(time.Millisecond)
	ms += p.HandoverProb(c) * hoMean
	return time.Duration(ms * float64(time.Millisecond))
}

// StdRTT returns the analytical standard deviation of SampleRTT.
func (p *Profile) StdRTT(c Conditions) time.Duration {
	c = p.validate(c)
	msVar := p.BaseSigmaMs * p.BaseSigmaMs

	loadMean := c.Load * float64(p.LoadCoef) / float64(time.Millisecond)
	msVar += loadMean * p.LoadRelSigma * loadMean * p.LoadRelSigma

	// Compound Poisson variance: lambda * E[X^2].
	lo := float64(p.RetxLo) / float64(time.Millisecond)
	hi := float64(p.RetxHi) / float64(time.Millisecond)
	ex2 := (lo*lo + lo*hi + hi*hi) / 3
	msVar += p.RetxPerKm * c.SiteKm * ex2

	// Bernoulli-scaled handover spike.
	prob := p.HandoverProb(c)
	sLo := float64(p.HOLo) / float64(time.Millisecond)
	sHi := float64(p.HOHi) / float64(time.Millisecond)
	sMean := (sLo + sHi) / 2
	sVar := (sHi - sLo) * (sHi - sLo) / 12
	msVar += prob*(1-prob)*sMean*sMean + prob*sVar

	return time.Duration(math.Sqrt(msVar) * float64(time.Millisecond))
}

// --- PHY-only latency (Fezeu et al. [22]) --------------------------------

// PHY models the one-way 5G mmWave physical-layer latency distribution
// measured by Fezeu et al. [22]: a log-normal with a median of about
// 5.9 ms whose lower tail puts ~4.4 % of packets under 1 ms and ~22.4 %
// under 3 ms.
type PHY struct {
	Mu    float64 // log-space mean
	Sigma float64 // log-space standard deviation
}

// DefaultPHY is calibrated to the Fezeu anchors.
var DefaultPHY = PHY{Mu: math.Log(5.9), Sigma: 1.02}

// Sample draws one one-way PHY latency.
func (p PHY) Sample(rng *des.RNG) time.Duration {
	return time.Duration(rng.LogNormal(p.Mu, p.Sigma) * float64(time.Millisecond))
}

// MedianMs returns the distribution median in milliseconds.
func (p PHY) MedianMs() float64 { return math.Exp(p.Mu) }

func (p PHY) String() string {
	return fmt.Sprintf("PHY(lognormal median=%.1fms sigma=%.2f)", p.MedianMs(), p.Sigma)
}
