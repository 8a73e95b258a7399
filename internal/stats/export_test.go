package stats

import (
	"fmt"
	"math"
	"sort"
)

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
