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

// Summary reconstructs a mergeable Summary from the snapshot. The
// moments a Snapshot renders as 0 for small samples (std at n < 2)
// reconstruct to their exact values — 0 is also the true second moment
// there — so merging restored snapshots is equivalent to merging the
// original summaries up to floating-point rounding in the std→m2
// round-trip. This is the bridge for consumers of exported snapshots
// (JSONL records, compact cache entries) that need to aggregate them
// further.
func (sn Snapshot) Summary() Summary {
	s := Summary{
		n:          sn.N,
		mean:       sn.Mean,
		min:        sn.Min,
		max:        sn.Max,
		hasExtrema: sn.N > 0,
	}
	if sn.N > 1 {
		s.m2 = sn.Std * sn.Std * float64(sn.N-1)
	}
	return s
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

// Median returns the 0.5 quantile.
func (s *Sample) Median() float64 { return s.Quantile(0.5) }

// CDF returns the empirical probability P(X <= x).
func (s *Sample) CDF(x float64) float64 {
	if len(s.xs) == 0 {
		return math.NaN()
	}
	s.ensureSorted()
	idx := sort.SearchFloat64s(s.xs, x)
	// Advance over ties so we count values equal to x as <= x.
	for idx < len(s.xs) && s.xs[idx] <= x {
		idx++
	}
	return float64(idx) / float64(len(s.xs))
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

// Histogram bins the sample into n equal-width bins over [min, max] and
// returns the bin edges (n+1 values) and counts (n values).
func (s *Sample) Histogram(n int) (edges []float64, counts []int) {
	if n <= 0 || len(s.xs) == 0 {
		return nil, nil
	}
	lo, hi := s.Min(), s.Max()
	if hi == lo {
		hi = lo + 1
	}
	width := (hi - lo) / float64(n)
	edges = make([]float64, n+1)
	for i := range edges {
		edges[i] = lo + float64(i)*width
	}
	counts = make([]int, n)
	for _, x := range s.xs {
		b := int((x - lo) / width)
		if b >= n {
			b = n - 1
		}
		if b < 0 {
			b = 0
		}
		counts[b]++
	}
	return edges, counts
}

// CI95 returns the 95 % confidence interval of the mean as (lo, hi),
// using the normal approximation with a small-sample t correction.
// For n < 2 it returns (mean, mean).
func (s *Summary) CI95() (lo, hi float64) {
	m := s.Mean()
	if s.n < 2 {
		return m, m
	}
	// Two-sided 97.5 % t quantiles for small n, converging to 1.96.
	t := 1.96
	if s.n-1 < len(tTable) {
		t = tTable[s.n-1]
	}
	half := t * s.Std() / math.Sqrt(float64(s.n))
	return m - half, m + half
}

// tTable[i] is the 97.5 % two-sided Student-t quantile for i degrees of
// freedom (index 0 unused).
var tTable = []float64{
	0, 12.706, 4.303, 3.182, 2.776, 2.571, 2.447, 2.365, 2.306, 2.262,
	2.228, 2.201, 2.179, 2.160, 2.145, 2.131, 2.120, 2.110, 2.101, 2.093,
	2.086, 2.080, 2.074, 2.069, 2.064, 2.060, 2.056, 2.052, 2.048, 2.045,
}

// Band is an inclusive numeric interval used to express calibration
// targets ("the paper reports a value in [lo, hi]").
type Band struct {
	Lo, Hi float64
}

// Contains reports whether x lies within the band.
func (b Band) Contains(x float64) bool { return x >= b.Lo && x <= b.Hi }

// String renders the band as "[lo, hi]".
func (b Band) String() string { return fmt.Sprintf("[%g, %g]", b.Lo, b.Hi) }

// MeanOf returns the mean of a float slice, or NaN when empty.
func MeanOf(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
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
