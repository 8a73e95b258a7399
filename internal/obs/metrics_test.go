package obs

import (
	"strings"
	"sync"
	"testing"
)

func TestCounterAndGauge(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("x_total", "help")
	c.Inc()
	c.Add(4)
	c.Add(-3) // ignored: counters are monotone
	if got := c.Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	if again := r.Counter("x_total", "help"); again != c {
		t.Fatal("re-registration must return the same counter")
	}
	z := 1.5
	r.GaugeFunc("z", "help", func() float64 { return z })
	z = 2.5
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "\nz 2.5\n") {
		t.Fatalf("gauge must be sampled at scrape time:\n%s", b.String())
	}
}

func TestHistogramObserve(t *testing.T) {
	h := NewHistogram([]int64{10, 100, 1000})
	for _, v := range []int64{5, 10, 11, 99, 5000, -3} {
		h.Observe(v)
	}
	if got := h.Count(); got != 6 {
		t.Fatalf("count = %d, want 6", got)
	}
	// -3 clamps to 0.
	if got := h.Sum(); got != 5+10+11+99+5000 {
		t.Fatalf("sum = %d", got)
	}
	if got := h.Max(); got != 5000 {
		t.Fatalf("max = %d, want 5000", got)
	}
	// Buckets: le=10 gets {5,10,0} = 3; le=100 gets {11,99} = 2;
	// le=1000 gets 0; +Inf gets {5000} = 1.
	wantCounts := []int64{3, 2, 0, 1}
	for i, want := range wantCounts {
		if got := h.counts[i].Load(); got != want {
			t.Fatalf("bucket %d = %d, want %d", i, got, want)
		}
	}
}

func TestHistogramQuantile(t *testing.T) {
	h := NewHistogram([]int64{100, 200, 400})
	if got := h.Quantile(0.5); got != 0 {
		t.Fatalf("empty quantile = %d, want 0", got)
	}
	// 100 observations uniformly in (100, 200]: p50 should interpolate
	// near the middle of that bucket.
	for i := 0; i < 100; i++ {
		h.Observe(150)
	}
	p50 := h.Quantile(0.5)
	if p50 < 100 || p50 > 200 {
		t.Fatalf("p50 = %d, want within (100,200]", p50)
	}
	// Everything in one bucket: p99 stays in it too.
	if p99 := h.Quantile(0.99); p99 < 100 || p99 > 200 {
		t.Fatalf("p99 = %d, want within (100,200]", p99)
	}
	// Overflow observations report the max.
	h.Observe(9999)
	if got := h.Quantile(1); got != 9999 {
		t.Fatalf("p100 = %d, want observed max 9999", got)
	}
}

// TestMetricszGolden pins the exposition format byte-for-byte: family
// ordering (sorted by name), series ordering (sorted by labels),
// histogram bucket/sum/count shape, derived quantile gauges, and
// HELP/label escaping.
func TestMetricszGolden(t *testing.T) {
	r := NewRegistry()
	r.Counter("svc_hits_total", "Cache hits.", Label{"endpoint", "scenario"}).Add(3)
	r.Counter("svc_hits_total", "Cache hits.", Label{"endpoint", "sweep"}).Add(1)
	r.GaugeFunc("svc_queue_depth", `Depth with "quotes" and \slash`, func() float64 { return 2 })
	h := r.Histogram("svc_latency_us", "Request latency.", []int64{10, 100}, Label{"endpoint", "scenario"})
	h.Observe(5)
	h.Observe(50)
	h.Observe(500)

	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	want := `# HELP svc_hits_total Cache hits.
# TYPE svc_hits_total counter
svc_hits_total{endpoint="scenario"} 3
svc_hits_total{endpoint="sweep"} 1
# HELP svc_latency_us Request latency.
# TYPE svc_latency_us histogram
svc_latency_us_bucket{endpoint="scenario",le="10"} 1
svc_latency_us_bucket{endpoint="scenario",le="100"} 2
svc_latency_us_bucket{endpoint="scenario",le="+Inf"} 3
svc_latency_us_sum{endpoint="scenario"} 555
svc_latency_us_count{endpoint="scenario"} 3
# HELP svc_latency_us_p50 Request latency. (p50 estimate)
# TYPE svc_latency_us_p50 gauge
svc_latency_us_p50{endpoint="scenario"} 55
# HELP svc_latency_us_p95 Request latency. (p95 estimate)
# TYPE svc_latency_us_p95 gauge
svc_latency_us_p95{endpoint="scenario"} 500
# HELP svc_latency_us_p99 Request latency. (p99 estimate)
# TYPE svc_latency_us_p99 gauge
svc_latency_us_p99{endpoint="scenario"} 500
# HELP svc_queue_depth Depth with "quotes" and \\slash
# TYPE svc_queue_depth gauge
svc_queue_depth 2
`
	if got := b.String(); got != want {
		t.Fatalf("exposition mismatch:\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}
	// A second render must be byte-identical (stable ordering).
	var b2 strings.Builder
	if err := r.WritePrometheus(&b2); err != nil {
		t.Fatal(err)
	}
	if b2.String() != b.String() {
		t.Fatal("exposition output is not stable across renders")
	}
}

func TestLabelEscaping(t *testing.T) {
	r := NewRegistry()
	r.Counter("e_total", "h", Label{"u", "a\\b\"c\nd"}).Inc()
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	want := `e_total{u="a\\b\"c\nd"} 1`
	if !strings.Contains(b.String(), want) {
		t.Fatalf("escaped label missing:\n%s", b.String())
	}
}

// TestHistogramRaceHammer exercises the registry under the race
// detector: concurrent Observe against concurrent scrapes, then
// asserts counts observed by successive scrapes are monotone and the
// final totals are exact.
func TestHistogramRaceHammer(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("hammer_us", "h", nil)
	c := r.Counter("hammer_total", "h")
	const writers, perWriter = 8, 2000
	var writerWG, scraperWG sync.WaitGroup
	stop := make(chan struct{})
	var scrapeErr error
	scraperWG.Add(1)
	go func() {
		defer scraperWG.Done()
		var lastCount, lastSum int64
		for {
			select {
			case <-stop:
				return
			default:
			}
			var b strings.Builder
			if err := r.WritePrometheus(&b); err != nil {
				scrapeErr = err
				return
			}
			count, sum := h.Count(), h.Sum()
			if count < lastCount || sum < lastSum {
				scrapeErr = errNonMonotone
				return
			}
			lastCount, lastSum = count, sum
		}
	}()
	for w := 0; w < writers; w++ {
		writerWG.Add(1)
		go func(seed int64) {
			defer writerWG.Done()
			for i := 0; i < perWriter; i++ {
				h.Observe(seed + int64(i)%1000)
				c.Inc()
			}
		}(int64(w))
	}
	writerWG.Wait()
	close(stop)
	scraperWG.Wait()
	if scrapeErr != nil {
		t.Fatal(scrapeErr)
	}
	if got := h.Count(); got != writers*perWriter {
		t.Fatalf("final count = %d, want %d", got, writers*perWriter)
	}
	if got := c.Value(); got != writers*perWriter {
		t.Fatalf("final counter = %d, want %d", got, writers*perWriter)
	}
}

var errNonMonotone = errNonMonotoneType{}

type errNonMonotoneType struct{}

func (errNonMonotoneType) Error() string { return "scrape saw non-monotone histogram totals" }
