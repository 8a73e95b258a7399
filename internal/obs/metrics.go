// Package obs is the observability core for the serving stack: an
// atomic metrics registry with Prometheus text exposition, W3C
// traceparent-style request tracing with JSONL span export, and the
// shared ops-listener mux (pprof + /metricsz + /statsz).
//
// The package is deliberately outside the determinism analyzer's roots:
// observing wall-clock time is its whole job. Everything here is pure
// stdlib, and the two hot-path entry points — Histogram.Observe and
// Span.ObserveStage — are annotated //sweepvet:hotpath and must stay
// zero-alloc (CI runs their BenchmarkHot* twins with -benchmem and
// fails on any allocs/op > 0).
package obs

import (
	"fmt"
	"io"
	"net/http"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// A Label is one metric dimension, rendered as key="value" in the
// exposition format. Label values are escaped at registration time so
// the scrape path never re-walks them.
type Label struct {
	Key, Value string
}

// Counter is a monotonically increasing metric. The zero value is
// ready to use, but counters are normally minted by Registry.Counter
// so they appear in /metricsz.
type Counter struct {
	v atomic.Int64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n; negative deltas are ignored to keep the counter
// monotone.
func (c *Counter) Add(n int64) {
	if n > 0 {
		c.v.Add(n)
	}
}

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// DefLatencyBucketsUs is the default microsecond latency ladder:
// roughly exponential from 50µs to 10s, sized for the serving stack's
// observed range (warm cache hits ~100µs, cold simulations ~100ms-10s).
var DefLatencyBucketsUs = []int64{
	50, 100, 250, 500,
	1_000, 2_500, 5_000, 10_000, 25_000, 50_000,
	100_000, 250_000, 500_000,
	1_000_000, 2_500_000, 5_000_000, 10_000_000,
}

// Histogram is a fixed-bucket histogram of int64 observations
// (microseconds, by convention). Observations land in the first bucket
// whose upper bound is >= the value; values above every bound land in
// the implicit +Inf bucket. Sum, count and a CAS-maintained max ride
// along so /statsz totals and the histogram share one source of truth.
type Histogram struct {
	bounds []int64        // ascending upper bounds; +Inf is implicit
	counts []atomic.Int64 // len(bounds)+1; last is the overflow bucket
	sum    atomic.Int64
	max    atomic.Int64
}

// NewHistogram returns an unregistered histogram over the given
// ascending upper bounds (nil means DefLatencyBucketsUs). Use
// Registry.Histogram for one that appears in /metricsz.
func NewHistogram(bounds []int64) *Histogram {
	if len(bounds) == 0 {
		bounds = DefLatencyBucketsUs
	}
	b := make([]int64, len(bounds))
	copy(b, bounds)
	return &Histogram{bounds: b, counts: make([]atomic.Int64, len(b)+1)}
}

// Observe records one value. This is the metrics hot path — it runs
// once per request per stage on the serving goroutines — so it must
// not allocate: a bounded linear scan over the bucket bounds (≤ ~18
// comparisons), three atomic adds, and a CAS loop for the max.
//
//sweepvet:hotpath
func (h *Histogram) Observe(v int64) {
	if v < 0 {
		v = 0
	}
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.counts[i].Add(1)
	h.sum.Add(v)
	for {
		cur := h.max.Load()
		if v <= cur || h.max.CompareAndSwap(cur, v) {
			return
		}
	}
}

// Count returns the total number of observations.
func (h *Histogram) Count() int64 {
	var n int64
	for i := range h.counts {
		n += h.counts[i].Load()
	}
	return n
}

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() int64 { return h.sum.Load() }

// Max returns the largest observed value (0 before any observation).
func (h *Histogram) Max() int64 { return h.max.Load() }

// Quantile estimates the q-th quantile (0 < q <= 1) by linear
// interpolation inside the bucket where the rank falls; observations in
// the overflow bucket report the observed max. Returns 0 with no
// observations. Estimates are bucket-resolution — good enough for
// operator dashboards, not for the statistics pipeline.
func (h *Histogram) Quantile(q float64) int64 {
	counts := make([]int64, len(h.counts))
	var total int64
	for i := range h.counts {
		counts[i] = h.counts[i].Load()
		total += counts[i]
	}
	if total == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	} else if q > 1 {
		q = 1
	}
	rank := q * float64(total)
	var cum int64
	for i, c := range counts {
		cum += c
		if float64(cum) < rank {
			continue
		}
		if i == len(h.bounds) {
			return h.max.Load() // overflow bucket: bound is +Inf
		}
		lo := int64(0)
		if i > 0 {
			lo = h.bounds[i-1]
		}
		hi := h.bounds[i]
		if c == 0 {
			return hi
		}
		frac := (rank - float64(cum-c)) / float64(c)
		return lo + int64(frac*float64(hi-lo))
	}
	return h.max.Load()
}

// metricKind discriminates exposition behaviour.
type metricKind uint8

const (
	kindCounter metricKind = iota
	kindGauge
	kindHistogram
)

// series is one labelled instance inside a family.
type series struct {
	labels string // pre-rendered `k1="v1",k2="v2"`, escaped; "" for none
	c      *Counter
	g      func() float64 // a gauge, sampled at scrape time
	h      *Histogram
}

// family is all series sharing one metric name.
type family struct {
	name, help string
	kind       metricKind
	series     map[string]*series // keyed by rendered labels
}

// Registry holds metric families and renders them in Prometheus text
// exposition format (version 0.0.4). Registration takes a lock; the
// metric objects themselves are lock-free atomics, so the request hot
// path never touches the registry mutex. Output ordering is fully
// deterministic: families sort by name, series by rendered labels.
type Registry struct {
	mu   sync.Mutex
	fams map[string]*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{fams: make(map[string]*family)}
}

func renderLabels(labels []Label) string {
	if len(labels) == 0 {
		return ""
	}
	var b strings.Builder
	for i, l := range labels {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l.Key)
		b.WriteString(`="`)
		b.WriteString(escapeLabelValue(l.Value))
		b.WriteByte('"')
	}
	return b.String()
}

// escapeLabelValue applies the exposition-format label escapes:
// backslash, double quote and newline.
func escapeLabelValue(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	r := strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
	return r.Replace(v)
}

// escapeHelp applies the exposition-format HELP escapes: backslash and
// newline.
func escapeHelp(v string) string {
	if !strings.ContainsAny(v, "\\\n") {
		return v
	}
	r := strings.NewReplacer(`\`, `\\`, "\n", `\n`)
	return r.Replace(v)
}

func (r *Registry) lookup(name, help string, kind metricKind, labels []Label) *series {
	ls := renderLabels(labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.fams[name]
	if f == nil {
		f = &family{name: name, help: help, kind: kind, series: make(map[string]*series)}
		r.fams[name] = f
	}
	if f.kind != kind {
		panic(fmt.Sprintf("obs: metric %q re-registered with a different kind", name))
	}
	s := f.series[ls]
	if s == nil {
		s = &series{labels: ls}
		f.series[ls] = s
	}
	return s
}

// Counter registers (or returns the existing) counter for name+labels.
func (r *Registry) Counter(name, help string, labels ...Label) *Counter {
	s := r.lookup(name, help, kindCounter, labels)
	if s.c == nil {
		s.c = &Counter{}
	}
	return s.c
}

// GaugeFunc registers a gauge whose value is sampled from fn at scrape
// time. Re-registering the same name+labels replaces the function.
func (r *Registry) GaugeFunc(name, help string, fn func() float64, labels ...Label) {
	s := r.lookup(name, help, kindGauge, labels)
	s.g = fn
}

// Histogram registers (or returns the existing) histogram for
// name+labels; nil bounds means DefLatencyBucketsUs.
func (r *Registry) Histogram(name, help string, bounds []int64, labels ...Label) *Histogram {
	s := r.lookup(name, help, kindHistogram, labels)
	if s.h == nil {
		s.h = NewHistogram(bounds)
	}
	return s.h
}

// WritePrometheus renders every registered family in text exposition
// format. Histograms emit the standard _bucket/_sum/_count series plus
// derived <name>_p50/_p95/_p99 gauge families, so a scrape carries the
// operator quantiles directly even without a PromQL evaluator. Output
// is byte-stable for a fixed set of observations.
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.mu.Lock()
	names := make([]string, 0, len(r.fams))
	for n := range r.fams {
		names = append(names, n)
	}
	sort.Strings(names)
	fams := make([]*family, 0, len(names))
	for _, n := range names {
		fams = append(fams, r.fams[n])
	}
	r.mu.Unlock()

	var b strings.Builder
	for _, f := range fams {
		writeFamily(&b, f)
	}
	_, err := io.WriteString(w, b.String())
	return err
}

func sortedSeries(f *family) []*series {
	keys := make([]string, 0, len(f.series))
	for k := range f.series {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := make([]*series, 0, len(keys))
	for _, k := range keys {
		out = append(out, f.series[k])
	}
	return out
}

func writeFamily(b *strings.Builder, f *family) {
	ser := sortedSeries(f)
	switch f.kind {
	case kindCounter:
		header(b, f.name, f.help, "counter")
		for _, s := range ser {
			if s.c == nil {
				continue
			}
			sample(b, f.name, s.labels, strconv.FormatInt(s.c.Value(), 10))
		}
	case kindGauge:
		header(b, f.name, f.help, "gauge")
		for _, s := range ser {
			if s.g == nil {
				continue
			}
			sample(b, f.name, s.labels, formatFloat(s.g()))
		}
	case kindHistogram:
		header(b, f.name, f.help, "histogram")
		for _, s := range ser {
			if s.h == nil {
				continue
			}
			writeHistogramSeries(b, f.name, s)
		}
		// Derived quantile gauges, one family per quantile, emitted
		// right after the histogram they summarize.
		for _, q := range [...]struct {
			suffix string
			q      float64
		}{{"_p50", 0.50}, {"_p95", 0.95}, {"_p99", 0.99}} {
			header(b, f.name+q.suffix, f.help+" ("+q.suffix[1:]+" estimate)", "gauge")
			for _, s := range ser {
				if s.h == nil {
					continue
				}
				sample(b, f.name+q.suffix, s.labels, strconv.FormatInt(s.h.Quantile(q.q), 10))
			}
		}
	}
}

func writeHistogramSeries(b *strings.Builder, name string, s *series) {
	var cum int64
	for i, bound := range s.h.bounds {
		cum += s.h.counts[i].Load()
		le := `le="` + strconv.FormatInt(bound, 10) + `"`
		sample(b, name+"_bucket", joinLabels(s.labels, le), strconv.FormatInt(cum, 10))
	}
	cum += s.h.counts[len(s.h.bounds)].Load()
	sample(b, name+"_bucket", joinLabels(s.labels, `le="+Inf"`), strconv.FormatInt(cum, 10))
	sample(b, name+"_sum", s.labels, strconv.FormatInt(s.h.Sum(), 10))
	sample(b, name+"_count", s.labels, strconv.FormatInt(cum, 10))
}

func joinLabels(a, b string) string {
	if a == "" {
		return b
	}
	return a + "," + b
}

func header(b *strings.Builder, name, help, typ string) {
	b.WriteString("# HELP ")
	b.WriteString(name)
	b.WriteByte(' ')
	b.WriteString(escapeHelp(help))
	b.WriteByte('\n')
	b.WriteString("# TYPE ")
	b.WriteString(name)
	b.WriteByte(' ')
	b.WriteString(typ)
	b.WriteByte('\n')
}

func sample(b *strings.Builder, name, labels, value string) {
	b.WriteString(name)
	if labels != "" {
		b.WriteByte('{')
		b.WriteString(labels)
		b.WriteByte('}')
	}
	b.WriteByte(' ')
	b.WriteString(value)
	b.WriteByte('\n')
}

func formatFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// Handler returns the /metricsz scrape handler for the registry.
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = r.WritePrometheus(w)
	})
}

// RegisterRuntimeGauges adds the standard process-health gauges under
// the given namespace prefix: goroutine count, heap bytes, cumulative
// GC pause and GC cycle count. Values are sampled at scrape time.
func RegisterRuntimeGauges(r *Registry, ns string) {
	r.GaugeFunc(ns+"_goroutines", "Number of live goroutines.", func() float64 {
		return float64(runtime.NumGoroutine())
	})
	r.GaugeFunc(ns+"_heap_alloc_bytes", "Bytes of allocated heap objects.", func() float64 {
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		return float64(m.HeapAlloc)
	})
	r.GaugeFunc(ns+"_gc_pause_total_ns", "Cumulative GC stop-the-world pause time.", func() float64 {
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		return float64(m.PauseTotalNs)
	})
	r.GaugeFunc(ns+"_gc_cycles_total", "Completed GC cycles.", func() float64 {
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		return float64(m.NumGC)
	})
}
