package obs

import (
	"testing"
	"time"
)

// BenchmarkHot* twins for the //sweepvet:hotpath annotations in this
// package: CI's bench job runs them with -benchmem and fails on any
// allocs/op > 0.

func BenchmarkHotObserve(b *testing.B) {
	h := NewHistogram(nil)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Observe(int64(i & 0xfffff))
	}
	if h.Count() != int64(b.N) {
		b.Fatal("lost observations")
	}
}

func BenchmarkHotSpanStage(b *testing.B) {
	tr := NewTracer(TracerOptions{Service: "bench"})
	sp := tr.StartSpan("bench", "")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sp.ObserveStage(Stage(i%int(NumStages)), time.Microsecond)
	}
}
