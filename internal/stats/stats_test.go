package stats

import (
	"encoding/json"
	"math"
	"testing"
	"testing/quick"
	"time"
)

func TestSummaryBasics(t *testing.T) {
	var s Summary
	if s.N() != 0 || !math.IsNaN(s.Mean()) || !math.IsNaN(s.Min()) {
		t.Fatal("empty summary should be NaN/0")
	}
	for _, x := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		s.Add(x)
	}
	if s.N() != 8 {
		t.Fatalf("n = %d", s.N())
	}
	if got := s.Mean(); math.Abs(got-5) > 1e-12 {
		t.Fatalf("mean = %v", got)
	}
	// Population std of this classic set is 2; sample std = sqrt(32/7).
	if got := s.Std(); math.Abs(got-math.Sqrt(32.0/7.0)) > 1e-12 {
		t.Fatalf("std = %v", got)
	}
	if s.Min() != 2 || s.Max() != 9 {
		t.Fatalf("extrema = %v, %v", s.Min(), s.Max())
	}
}

func TestSummarySingleObservation(t *testing.T) {
	var s Summary
	s.Add(3.5)
	if s.Mean() != 3.5 || s.Min() != 3.5 || s.Max() != 3.5 {
		t.Fatal("single observation summary wrong")
	}
	if !math.IsNaN(s.Std()) {
		t.Fatal("std of single observation should be NaN")
	}
}

func TestSummaryAddDuration(t *testing.T) {
	var s Summary
	s.AddDuration(65 * time.Millisecond)
	s.AddDuration(75 * time.Millisecond)
	if got := s.Mean(); got != 70 {
		t.Fatalf("duration mean = %v ms, want 70", got)
	}
}

func TestSummaryMergeMatchesSequential(t *testing.T) {
	f := func(as, bs []float64) bool {
		clean := func(xs []float64) []float64 {
			out := make([]float64, 0, len(xs))
			for _, x := range xs {
				if !math.IsNaN(x) && !math.IsInf(x, 0) && math.Abs(x) < 1e9 {
					out = append(out, x)
				}
			}
			return out
		}
		as, bs = clean(as), clean(bs)
		var merged, seq, sa, sb Summary
		for _, x := range as {
			sa.Add(x)
			seq.Add(x)
		}
		for _, x := range bs {
			sb.Add(x)
			seq.Add(x)
		}
		merged = sa
		merged.Merge(sb)
		if merged.N() != seq.N() {
			return false
		}
		if merged.N() == 0 {
			return true
		}
		if math.Abs(merged.Mean()-seq.Mean()) > 1e-6*(1+math.Abs(seq.Mean())) {
			return false
		}
		if merged.N() >= 2 && math.Abs(merged.Var()-seq.Var()) > 1e-5*(1+seq.Var()) {
			return false
		}
		return merged.Min() == seq.Min() && merged.Max() == seq.Max()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestSummaryMergeEmpty(t *testing.T) {
	var a, b Summary
	a.Add(1)
	a.Merge(b) // merging empty is a no-op
	if a.N() != 1 {
		t.Fatal("merge with empty changed summary")
	}
	b.Merge(a) // merging into empty copies
	if b.N() != 1 || b.Mean() != 1 {
		t.Fatal("merge into empty wrong")
	}
}

func TestSampleQuantiles(t *testing.T) {
	s := NewSample(0)
	for i := 1; i <= 100; i++ {
		s.Add(float64(i))
	}
	if got := s.Median(); math.Abs(got-50.5) > 1e-9 {
		t.Fatalf("median = %v", got)
	}
	if got := s.Quantile(0); got != 1 {
		t.Fatalf("q0 = %v", got)
	}
	if got := s.Quantile(1); got != 100 {
		t.Fatalf("q1 = %v", got)
	}
	if got := s.Quantile(0.95); math.Abs(got-95.05) > 1e-9 {
		t.Fatalf("p95 = %v", got)
	}
}

func TestSampleQuantileMonotone(t *testing.T) {
	s := NewSample(0)
	for _, x := range []float64{9, 1, 7, 3, 3, 8, 2, 5} {
		s.Add(x)
	}
	f := func(q1, q2 float64) bool {
		a := math.Mod(math.Abs(q1), 1)
		b := math.Mod(math.Abs(q2), 1)
		if a > b {
			a, b = b, a
		}
		return s.Quantile(a) <= s.Quantile(b)+1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestSampleCDF(t *testing.T) {
	s := NewSample(0)
	for _, x := range []float64{1, 2, 2, 3, 10} {
		s.Add(x)
	}
	if got := s.CDF(2); got != 0.6 {
		t.Fatalf("CDF(2) = %v, want 0.6", got)
	}
	if got := s.FractionBelow(2); got != 0.2 {
		t.Fatalf("P(X<2) = %v, want 0.2", got)
	}
	if got := s.CDF(0); got != 0 {
		t.Fatalf("CDF(0) = %v", got)
	}
	if got := s.CDF(10); got != 1 {
		t.Fatalf("CDF(10) = %v", got)
	}
}

func TestSampleInterleavedAddAndQuantile(t *testing.T) {
	// Sorting for a quantile must not corrupt subsequent additions.
	s := NewSample(0)
	s.Add(5)
	s.Add(1)
	_ = s.Median()
	s.Add(3)
	if got := s.Median(); got != 3 {
		t.Fatalf("median after interleaved add = %v", got)
	}
	if s.N() != 3 {
		t.Fatalf("n = %d", s.N())
	}
}

func TestHistogram(t *testing.T) {
	s := NewSample(0)
	for i := 0; i < 10; i++ {
		s.Add(float64(i))
	}
	edges, counts := s.Histogram(3)
	if len(edges) != 4 || len(counts) != 3 {
		t.Fatalf("histogram shape: %v %v", edges, counts)
	}
	total := 0
	for _, c := range counts {
		total += c
	}
	if total != 10 {
		t.Fatalf("histogram loses mass: %v", counts)
	}
	if edges[0] != 0 || edges[3] != 9 {
		t.Fatalf("edges = %v", edges)
	}
}

func TestHistogramDegenerate(t *testing.T) {
	s := NewSample(0)
	s.Add(5)
	s.Add(5)
	_, counts := s.Histogram(4)
	total := 0
	for _, c := range counts {
		total += c
	}
	if total != 2 {
		t.Fatal("constant sample histogram loses mass")
	}
	if e, c := s.Histogram(0); e != nil || c != nil {
		t.Fatal("zero-bin histogram should be nil")
	}
}

func TestBand(t *testing.T) {
	b := Band{Lo: 61, Hi: 110}
	if !b.Contains(61) || !b.Contains(110) || !b.Contains(80) {
		t.Fatal("band should contain endpoints and interior")
	}
	if b.Contains(60.9) || b.Contains(110.1) {
		t.Fatal("band contains outside values")
	}
}

func TestExcessPercent(t *testing.T) {
	// The paper: measured ~74 ms vs 20 ms requirement -> ~270 % excess.
	if got := ExcessPercent(74, 20); math.Abs(got-270) > 1e-9 {
		t.Fatalf("ExcessPercent(74,20) = %v, want 270", got)
	}
	if got := ExcessPercent(20, 20); got != 0 {
		t.Fatalf("no excess should be 0, got %v", got)
	}
	if !math.IsNaN(ExcessPercent(1, 0)) {
		t.Fatal("zero requirement should be NaN")
	}
}

func TestRatioAndMeanOf(t *testing.T) {
	if Ratio(14, 2) != 7 {
		t.Fatal("ratio wrong")
	}
	if !math.IsNaN(Ratio(1, 0)) {
		t.Fatal("ratio by zero should be NaN")
	}
	if MeanOf([]float64{1, 2, 3}) != 2 {
		t.Fatal("MeanOf wrong")
	}
	if !math.IsNaN(MeanOf(nil)) {
		t.Fatal("MeanOf(nil) should be NaN")
	}
}

func TestSummaryMeanWithinExtrema(t *testing.T) {
	f := func(xs []float64) bool {
		var s Summary
		for _, x := range xs {
			if math.IsNaN(x) || math.IsInf(x, 0) || math.Abs(x) > 1e12 {
				continue
			}
			s.Add(x)
		}
		if s.N() == 0 {
			return true
		}
		spread := s.Max() - s.Min()
		return s.Mean() >= s.Min()-1e-9*(1+spread) && s.Mean() <= s.Max()+1e-9*(1+spread)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestVarianceNonNegative(t *testing.T) {
	f := func(xs []float64) bool {
		var s Summary
		for _, x := range xs {
			if math.IsNaN(x) || math.IsInf(x, 0) || math.Abs(x) > 1e12 {
				continue
			}
			s.Add(x)
		}
		if s.N() < 2 {
			return true
		}
		return s.Var() >= -1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestSummaryStateRoundTripIsLossless(t *testing.T) {
	var s Summary
	for _, x := range []float64{3.5, 1.25, 9.875, 2.5, 7.125, 4.0625} {
		s.Add(x)
	}
	restored := s.State().Summary()
	if restored != s {
		t.Fatalf("state round-trip changed the summary: %+v vs %+v", restored, s)
	}
	// Through JSON too: every field is finite, and Go's float64 JSON
	// encoding round-trips exactly.
	data, err := json.Marshal(s.State())
	if err != nil {
		t.Fatal(err)
	}
	var st SummaryState
	if err := json.Unmarshal(data, &st); err != nil {
		t.Fatal(err)
	}
	if st.Summary() != s {
		t.Fatalf("JSON state round-trip changed the summary: %+v vs %+v", st.Summary(), s)
	}
	// The restored summary stays mergeable and keeps extrema tracking.
	restored.Add(0.5)
	if restored.Min() != 0.5 || restored.N() != s.N()+1 {
		t.Fatalf("restored summary broken after Add: %s", restored.String())
	}

	var empty Summary
	if empty.State().Summary() != empty {
		t.Fatal("empty summary must round-trip to the zero value")
	}
}

func TestSnapshotSummaryRoundTrip(t *testing.T) {
	var a, b Summary
	for i := 0; i < 40; i++ {
		a.Add(float64(i%7) + 0.25)
		b.Add(float64(i%11) * 1.5)
	}
	for _, s := range []*Summary{&a, &b} {
		r := s.Snapshot().Summary()
		if r.N() != s.N() || r.Mean() != s.Mean() || r.Min() != s.Min() || r.Max() != s.Max() {
			t.Fatalf("snapshot round-trip lost first moments: %s vs %s", r.String(), s.String())
		}
		if math.Abs(r.Std()-s.Std()) > 1e-12*(1+s.Std()) {
			t.Fatalf("snapshot round-trip std %v, want ~%v", r.Std(), s.Std())
		}
	}
	// Merging restored snapshots is equivalent to merging the originals.
	direct := a
	direct.Merge(b)
	restored := a.Snapshot().Summary()
	restored.Merge(b.Snapshot().Summary())
	if restored.N() != direct.N() || math.Abs(restored.Mean()-direct.Mean()) > 1e-12 ||
		math.Abs(restored.Std()-direct.Std()) > 1e-9 {
		t.Fatalf("merged restored snapshots diverge: %s vs %s", restored.String(), direct.String())
	}
	// Degenerate sizes: n=0 and n=1 snapshots render std as 0, which is
	// also the exact second moment, so they restore losslessly.
	var empty, one Summary
	one.Add(3)
	if empty.Snapshot().Summary() != empty {
		t.Fatal("empty snapshot must restore to the zero summary")
	}
	got := one.Snapshot().Summary()
	got.Merge(a)
	want := one
	want.Merge(a)
	if got.N() != want.N() || got.Mean() != want.Mean() || got.Min() != want.Min() {
		t.Fatalf("n=1 snapshot merge diverges: %s vs %s", got.String(), want.String())
	}
}

func TestNewSamplesSizesEachExactly(t *testing.T) {
	caps := []int{2, 0, 3}
	ss := NewSamples(caps)
	if len(ss) != len(caps) {
		t.Fatalf("got %d samples, want %d", len(ss), len(caps))
	}
	for i, c := range caps {
		if got := cap(ss[i].Values()); got != c || len(ss[i].Values()) != 0 {
			t.Fatalf("sample %d: len %d cap %d, want empty with cap %d", i, len(ss[i].Values()), got, c)
		}
	}
	ss[0].Add(1)
	ss[0].Add(2)
	ss[2].Add(7)
	ss[0].Add(99) // past its cap: must copy, not write into the next sample
	ss[1].Add(98)
	ss[2].Add(8)
	ss[2].Add(9)
	if got := ss[2].Values(); len(got) != 3 || got[0] != 7 || got[1] != 8 || got[2] != 9 {
		t.Fatalf("adding past a neighbour's cap overwrote sample 2: %v", got)
	}
	if got := ss[0].Values(); len(got) != 3 || got[2] != 99 || ss[1].Values()[0] != 98 {
		t.Fatalf("samples lost their own values: %v %v", got, ss[1].Values())
	}
}

func TestSampleOf(t *testing.T) {
	orig := NewSample(4)
	for _, x := range []float64{2, 8, 4} {
		orig.Add(x)
	}
	values := []float64{2, 8, 4}
	full := SampleOf(orig.Summary, values)
	if full.Summary != orig.Summary {
		t.Fatal("sample must carry the exact summary")
	}
	if &full.Values()[0] != &values[0] {
		t.Fatal("SampleOf must take the values over, not copy them")
	}
	if full.Median() != 4 {
		t.Fatalf("sample median = %v, want 4", full.Median())
	}
	compact := SampleOf(orig.Summary, nil)
	if compact.N() != 3 || compact.Mean() != orig.Mean() {
		t.Fatal("summary-only sample lost its moments")
	}
	if !math.IsNaN(compact.Quantile(0.5)) {
		t.Fatal("summary-only sample should have no quantiles")
	}
}
