// Package stats provides the statistical machinery used by the
// measurement campaign and the experiment harness: streaming summaries
// (Welford), quantiles, histograms, empirical CDFs, and small helpers for
// calibration-band checks.
package stats

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// Summary accumulates count, mean, variance (Welford), min and max in a
// single pass. The zero value is an empty summary ready for use.
type Summary struct {
	n          int
	mean, m2   float64
	min, max   float64
	hasExtrema bool
}

// Add folds one observation into the summary.
//
//sweepvet:hotpath
func (s *Summary) Add(x float64) {
	s.n++
	d := x - s.mean
	s.mean += d / float64(s.n)
	s.m2 += d * (x - s.mean)
	if !s.hasExtrema || x < s.min {
		s.min = x
	}
	if !s.hasExtrema || x > s.max {
		s.max = x
	}
	s.hasExtrema = true
}

// AddDuration folds a duration observation, in milliseconds.
func (s *Summary) AddDuration(d time.Duration) {
	s.Add(float64(d) / float64(time.Millisecond))
}

// Merge folds another summary into s (parallel Welford combination).
//
//sweepvet:hotpath
func (s *Summary) Merge(o Summary) {
	if o.n == 0 {
		return
	}
	if s.n == 0 {
		*s = o
		return
	}
	n1, n2 := float64(s.n), float64(o.n)
	delta := o.mean - s.mean
	total := n1 + n2
	s.m2 += o.m2 + delta*delta*n1*n2/total
	s.mean += delta * n2 / total
	s.n += o.n
	if o.min < s.min {
		s.min = o.min
	}
	if o.max > s.max {
		s.max = o.max
	}
}

// N returns the number of observations.
func (s *Summary) N() int { return s.n }

// Mean returns the arithmetic mean, or NaN when empty.
func (s *Summary) Mean() float64 {
	if s.n == 0 {
		return math.NaN()
	}
	return s.mean
}

// Var returns the unbiased sample variance, or NaN for n < 2.
func (s *Summary) Var() float64 {
	if s.n < 2 {
		return math.NaN()
	}
	return s.m2 / float64(s.n-1)
}

// Std returns the unbiased sample standard deviation, or NaN for n < 2.
func (s *Summary) Std() float64 { return math.Sqrt(s.Var()) }

// Min returns the minimum observation, or NaN when empty.
func (s *Summary) Min() float64 {
	if s.n == 0 {
		return math.NaN()
	}
	return s.min
}

// Max returns the maximum observation, or NaN when empty.
func (s *Summary) Max() float64 {
	if s.n == 0 {
		return math.NaN()
	}
	return s.max
}

// Snapshot is an exported, encoding-friendly view of a Summary. Moments
// that are undefined for the sample size (mean of an empty summary, std
// for n < 2) are rendered as 0 so the snapshot always serializes to valid
// JSON (NaN has no JSON encoding).
type Snapshot struct {
	N    int     `json:"n"`
	Mean float64 `json:"mean"`
	Std  float64 `json:"std"`
	Min  float64 `json:"min"`
	Max  float64 `json:"max"`
}

// Snapshot returns the summary's exported view.
func (s *Summary) Snapshot() Snapshot {
	return Snapshot{
		N:    s.n,
		Mean: FiniteOr0(s.Mean()),
		Std:  FiniteOr0(s.Std()),
		Min:  FiniteOr0(s.Min()),
		Max:  FiniteOr0(s.Max()),
	}
}

// SummaryState is the lossless serialization of a Summary: the raw
// Welford accumulators rather than the derived moments, so a
// state→Summary→state round-trip is bit-exact (every field is finite,
// so it always survives JSON). Use Snapshot for human-facing exports
// and SummaryState when downstream consumers must reproduce the
// original summary byte-for-byte (the sweep result store).
type SummaryState struct {
	N    int     `json:"n"`
	Mean float64 `json:"mean"`
	M2   float64 `json:"m2"`
	Min  float64 `json:"min"`
	Max  float64 `json:"max"`
}

// State returns the summary's lossless serializable form.
func (s *Summary) State() SummaryState {
	return SummaryState{N: s.n, Mean: s.mean, M2: s.m2, Min: s.min, Max: s.max}
}

// Summary reconstructs the exact Summary the state was taken from.
func (st SummaryState) Summary() Summary {
	return Summary{
		n:          st.N,
		mean:       st.Mean,
		m2:         st.M2,
		min:        st.Min,
		max:        st.Max,
		hasExtrema: st.N > 0,
	}
}

// FiniteOr0 maps NaN and infinities to 0, the convention the paper's
// figures use for undefined cells.
func FiniteOr0(x float64) float64 {
	if math.IsNaN(x) || math.IsInf(x, 0) {
		return 0
	}
	return x
}

// String renders a compact human-readable summary.
func (s *Summary) String() string {
	if s.n == 0 {
		return "n=0"
	}
	return fmt.Sprintf("n=%d mean=%.2f std=%.2f min=%.2f max=%.2f",
		s.n, s.Mean(), s.Std(), s.Min(), s.Max())
}

// Sample is an in-memory collection of observations supporting quantiles
// and CDF evaluation on top of the streaming Summary.
type Sample struct {
	Summary
	xs     []float64
	sorted bool
}

// NewSample returns an empty sample with the given capacity hint.
func NewSample(capacity int) *Sample {
	return &Sample{xs: make([]float64, 0, capacity)}
}

// Add records one observation.
func (s *Sample) Add(x float64) {
	s.Summary.Add(x)
	s.xs = append(s.xs, x)
	s.sorted = false
}

// AddDuration records a duration observation in milliseconds.
func (s *Sample) AddDuration(d time.Duration) {
	s.Add(float64(d) / float64(time.Millisecond))
}

// Values returns the observations in insertion order. The slice is the
// sample's backing store when the sample has never been sorted; callers
// must not mutate it.
func (s *Sample) Values() []float64 { return s.xs }

// NewSamples returns one empty sample per capacity, built from two
// allocations: the samples themselves and one slab for all their
// values. Each sample's values are clipped to exactly its capacity, so
// an Add past it copies rather than write into the next sample's.
func NewSamples(caps []int) []Sample {
	total := 0
	for _, c := range caps {
		total += c
	}
	out := make([]Sample, len(caps))
	slab := make([]float64, total)
	off := 0
	for i, c := range caps {
		out[i].xs = slab[off : off : off+c]
		off += c
	}
	return out
}

// SampleOf returns a sample with the given summary over values, which
// it takes ownership of: values may be nil for a summary-only sample,
// which supports everything but quantiles, CDFs and histograms. The
// summary is trusted rather than recomputed from values: re-folding
// observations in a different order would perturb the Welford
// accumulators in the last ulp and break byte-exact round-trips.
func SampleOf(sum Summary, values []float64) Sample {
	return Sample{Summary: sum, xs: values}
}

func (s *Sample) ensureSorted() {
	if !s.sorted {
		sort.Float64s(s.xs)
		s.sorted = true
	}
}

// Quantile returns the q-quantile (0 <= q <= 1) by linear interpolation
// between order statistics. It returns NaN for an empty sample.
//
// Quantile sorts in place (as do Median, CDF and FractionBelow): never
// call it on a shared result, such as one the sweep cache serves
// without Want.Raw — Clone first.
func (s *Sample) Quantile(q float64) float64 {
	if len(s.xs) == 0 {
		return math.NaN()
	}
	if q <= 0 {
		return s.Min()
	}
	if q >= 1 {
		return s.Max()
	}
	s.ensureSorted()
	pos := q * float64(len(s.xs)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return s.xs[lo]
	}
	frac := pos - float64(lo)
	return s.xs[lo]*(1-frac) + s.xs[hi]*frac
}

// FractionBelow returns P(X < x) strictly.
func (s *Sample) FractionBelow(x float64) float64 {
	if len(s.xs) == 0 {
		return math.NaN()
	}
	s.ensureSorted()
	idx := sort.SearchFloat64s(s.xs, x)
	return float64(idx) / float64(len(s.xs))
}

// Ratio returns a/b, guarding against division by zero with NaN.
func Ratio(a, b float64) float64 {
	if b == 0 {
		return math.NaN()
	}
	return a / b
}

// ExcessPercent returns how far measured exceeds required, in percent:
// (measured - required) / required * 100. This is the paper's "exceeds
// the requirements by approximately 270%" metric.
func ExcessPercent(measured, required float64) float64 {
	if required == 0 {
		return math.NaN()
	}
	return (measured - required) / required * 100
}
