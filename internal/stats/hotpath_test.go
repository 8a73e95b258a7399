package stats

import "testing"

// BenchmarkHotSummaryAdd exercises the per-observation fold that runs
// once per sample in the DES measurement loops. CI's bench job records
// the -benchmem output in BENCH.json and fails on allocs/op > 0.
func BenchmarkHotSummaryAdd(b *testing.B) {
	var s Summary
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Add(float64(i&1023) * 0.25)
	}
	if s.N() != b.N {
		b.Fatal("summary lost observations")
	}
}

// BenchmarkHotSummaryMerge exercises the parallel Welford combination
// the sweep workers run in their reduction loop.
func BenchmarkHotSummaryMerge(b *testing.B) {
	var part Summary
	for i := 0; i < 64; i++ {
		part.Add(float64(i))
	}
	var s Summary
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Merge(part)
	}
	if s.N() != 64*b.N {
		b.Fatal("merge lost observations")
	}
}
