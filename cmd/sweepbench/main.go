// Command sweepbench is the repository's benchmark: it drives one named
// workload through the whole serving stack (simulator → sweep cache and
// store → sweepd → sweep-proxy), in process over loopback, and prints
// every metric by name with its unit. Every run checks every response
// byte and the servers' counters; a wrong byte or a counter that does
// not add up fails the run and exits 1.
//
// Usage (from the repository root):
//
//	bash cmd/sweepbench/run.sh --workload warm-read --seed 1 --seconds 10 --trace 0
//	bash cmd/sweepbench/run.sh --workload cold-miss --seed 1 --seconds 10 --trace 1 --trace-out spans.jsonl
//	bash cmd/sweepbench/run.sh -compare parent/*.log -- change/*.log
//
// --trace 0 prints the end-to-end metrics; --trace 1 runs the same
// schedule with every tier traced and prints the per-layer metrics.
// The last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics"}. README.md lists the
// workloads, the metrics and how to read them.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"runtime"
	"sort"
	"time"

	"repro/internal/obs"
)

func main() {
	os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr))
}

// Exit codes.
const (
	exitOK    = 0
	exitFail  = 1 // a wrong byte, a broken counter identity, or a run error
	exitUsage = 2
)

func realMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("sweepbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		name     = fs.String("workload", "", "workload to run (see README.md)")
		seed     = fs.Uint64("seed", 1, "seed every scenario, op mix and arrival time derives from")
		seconds  = fs.Float64("seconds", 10, "length of the timed phase")
		trace    = fs.Int("trace", 0, "0: end-to-end metrics; 1: traced run printing per-layer metrics")
		traceOut = fs.String("trace-out", "", "with --trace 1: also write every span as JSONL here (render with sweep -decode-trace)")
		rate     = fs.Float64("rate", 0, "override an open-loop workload's rate in ops/s (calibration ladder)")
		workdir  = fs.String("workdir", ".bench_build", "directory for per-run store directories")
		compare  = fs.Bool("compare", false, "compare run logs: -compare A.log... -- B.log...")
		bench    = fs.String("benchmark", "BENCHMARK.json", "with -compare: the file holding the metric bounds")
	)
	if err := fs.Parse(args); err != nil {
		return exitUsage
	}
	if *compare {
		return runCompare(*bench, fs.Args(), stdout, stderr)
	}
	w, ok := workloadByName(*name)
	if !ok {
		fmt.Fprintf(stderr, "sweepbench: unknown workload %q; known:", *name)
		for _, w := range workloads {
			fmt.Fprintf(stderr, " %s", w.name)
		}
		fmt.Fprintln(stderr)
		return exitUsage
	}
	if *seconds <= 0 || *trace < 0 || *trace > 1 || *rate < 0 || (*traceOut != "" && *trace != 1) {
		fmt.Fprintln(stderr, "sweepbench: need --seconds > 0, --trace 0 or 1, --rate >= 0, and --trace-out only with --trace 1")
		return exitUsage
	}
	if err := os.MkdirAll(*workdir, 0o755); err != nil {
		fmt.Fprintln(stderr, "sweepbench:", err)
		return exitFail
	}
	cfg := config{w: w, seed: *seed, seconds: *seconds, rate: *rate, traced: *trace == 1,
		traceOut: *traceOut, workdir: *workdir, sz: fullSizes, log: stderr}
	fmt.Fprintf(stdout, "# sweepbench workload=%s seed=%d seconds=%g trace=%d\n", w.name, *seed, *seconds, *trace)
	rep, err := run(context.Background(), cfg)
	if rep.Metrics != nil {
		line, merr := json.Marshal(rep)
		if merr != nil {
			err = errors.Join(err, merr)
		} else {
			fmt.Fprintf(stdout, "%s\n", line)
		}
	}
	if err != nil {
		fmt.Fprintln(stderr, "sweepbench:", err)
		return exitFail
	}
	return exitOK
}

// config is one run's settings.
type config struct {
	w        *workload
	seed     uint64
	seconds  float64
	rate     float64
	traced   bool
	traceOut string
	workdir  string
	sz       sizes
	log      io.Writer
	// wrap, when set, wraps the generator's transport (tests inject
	// faults with it).
	wrap func(http.RoundTripper) http.RoundTripper
}

// metric is one printed value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the result line.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// units of every metric the benchmark prints; BENCHMARK.json lists the
// same names and units (the smoke test holds them together).
var units = map[string]string{
	"setup_s":       "s",
	"p50_ms":        "ms",
	"p95_ms":        "ms",
	"goodput_rps":   "1/s",
	"records_per_s": "1/s",
	"allocs_per_op": "count",
	"rss_peak_mb":   "MiB",

	"loadgen.lag_p99_ms":              "ms",
	"loadgen.sent":                    "count",
	"loadgen.completed":               "count",
	"http.overhead_us_p50":            "us",
	"http.resp_bytes_per_op":          "B",
	"serve.handler_self_us_p50":       "us",
	"serve.encode_us_per_record":      "us",
	"serve.flush_share":               "fraction",
	"serve.hits":                      "count",
	"serve.misses":                    "count",
	"sweep.get_us_mean":               "us",
	"sweep.hit_ratio":                 "fraction",
	"store.get_us_mean":               "us",
	"store.gets_per_op":               "count",
	"store.put_us_mean":               "us",
	"store.puts":                      "count",
	"campaign.runs":                   "count",
	"campaign.run_ms_p50":             "ms",
	"campaign.pings_per_run":          "count",
	"campaign.busy_share":             "fraction",
	"routing.calls_per_run":           "count",
	"routing.route_us":                "us",
	"routing.allocs_per_call":         "count",
	"routing.share_of_run":            "fraction",
	"des.events_per_run":              "count",
	"des.event_ns":                    "ns",
	"tlv.bytes_per_record":            "B",
	"tlv.records_per_batch":           "count",
	"cluster.backend_requests_per_op": "count",
	"cluster.backend_us_p50":          "us",
	"cluster.replica_share":           "fraction",
	"cluster.reframe_us_per_record":   "us",
	"runtime.alloc_bytes_per_op":      "B",
	"runtime.gc_cpu_share":            "fraction",
	"runtime.cpu_busy_share":          "fraction",
	"obs.span_us":                     "us",
	"obs.trace_overhead_pct":          "%",
}

// run sets the workload up (several times, keeping the last stack),
// runs the timed phase, checks the oracles and computes the metrics.
// An oracle failure returns the report with Correct false and the
// error.
func run(ctx context.Context, cfg config) (report, error) {
	p, err := buildPlan(cfg.w, cfg.seed, cfg.seconds, cfg.rate, cfg.sz)
	if err != nil {
		return report{}, err
	}
	conns := runtime.GOMAXPROCS(0)
	if cfg.w.conns > 0 {
		conns = min(conns, cfg.w.conns)
	}
	var transport http.RoundTripper = newTransport(conns)
	if cfg.wrap != nil {
		transport = cfg.wrap(transport)
	}
	clientHops := &hopTimer{next: transport}
	client := &http.Client{Transport: clientHops}
	// Scrapes use their own client: they are not load.
	scraper := &http.Client{Transport: &http.Transport{}}
	defer scraper.CloseIdleConnections()
	defer client.CloseIdleConnections()

	// ctrl bounds everything but the timed phase: set-ups, scrapes and
	// teardown.
	ctrl, cancel := context.WithTimeout(ctx, 2*time.Minute)
	defer cancel()
	var setups []time.Duration
	var st *stack
	for i := 0; i < cfg.sz.setups; i++ {
		t0 := time.Now()
		next, err := setUp(ctrl, p, cfg.workdir, client, cfg.traced)
		if err != nil {
			return report{}, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(t0))
		if st != nil {
			// Every set-up must produce the same reference bytes.
			for id, b := range st.refs {
				if string(next.refs[id]) != string(b) {
					err = &mismatchError{id, "set-up served different bytes on a repeated set-up"}
				}
			}
			if terr := st.tearDown(ctrl); terr != nil || err != nil {
				return report{}, errors.Join(err, terr, next.tearDown(ctrl))
			}
		}
		st = next
	}
	stopped := false
	defer func() {
		if !stopped {
			st.tearDown(ctrl)
		}
	}()

	ph := &phase{p: p, st: st}
	v := newVerifier(p, st.refs)
	g := &generator{client: client, base: st.front, conns: conns, check: v.check}
	if cfg.traced {
		ph.clientSpans = &spanSink{}
		g.tracer = obs.NewTracer(obs.TracerOptions{Service: "sweepbench", Writer: ph.clientSpans, SampleN: 1})
	}
	for _, n := range st.nodes {
		durs, _ := n.runs.snapshot()
		ph.runsAtStart = append(ph.runsAtStart, len(durs))
	}

	runtime.GC()
	if ph.before, err = takeSnapshot(ctrl, scraper, st); err != nil {
		return report{}, err
	}
	clientHops.take()
	if st.proxy != nil {
		st.proxy.hops.take()
	}
	ph.rt0 = readRuntime()
	ph.start = time.Now()
	length := time.Duration(cfg.seconds * float64(time.Second))
	maxLimit := max(cfg.w.limit[opScenario], cfg.w.limit[opStream])
	// Ops still unfinished 2 s + 4 limits after the schedule ends fail.
	phaseCtx, cancelPhase := context.WithDeadline(ctx, ph.start.Add(length+2*time.Second+4*maxLimit))
	if cfg.w.open {
		ph.samples = g.runOpen(phaseCtx, p.ops, ph.start)
	} else {
		ph.samples = g.runClosed(phaseCtx, p.ops, ph.start.Add(length))
	}
	cancelPhase()
	ph.rt1 = readRuntime()
	for i := range ph.samples {
		if d := ph.samples[i].done.Sub(ph.start); d > ph.elapsed {
			ph.elapsed = d
		}
	}
	if ph.elapsed <= 0 {
		ph.elapsed = length
	}

	logLatencies(cfg.log, ph.samples)
	checkTiming(cfg.log, ph.samples, maxLimit)
	rep := report{Correct: true, Attempted: len(ph.samples)}
	for i := range ph.samples {
		if !ph.samples[i].ok {
			if rep.Failed < 5 {
				fmt.Fprintf(cfg.log, "sweepbench: op %d failed: %v\n", i, ph.samples[i].err)
			}
			rep.Failed++
		}
	}

	var oracle []error
	if ph.after, err = takeSnapshot(ctrl, scraper, st); err != nil {
		return report{}, err
	}
	counts := countClient(ph.samples)
	ph.hops = clientHops.take()
	if st.proxy != nil {
		ph.hops = st.proxy.hops.take()
		for _, h := range ph.hops {
			if h.path == "/v1/scenario" && h.status != 0 {
				counts.backendScenarioReq++
			}
		}
	}
	oracle = append(oracle, conserve(ph.before, ph.after, counts, st.proxy != nil))
	oracle = append(oracle, v.first)
	if cfg.traced {
		oracle = append(oracle, cacheStoreReplay(ph))
	}

	stopped = true
	if err := st.tearDown(ctrl); err != nil {
		return report{}, err
	}
	oracle = append(oracle, recompute(recomputeIDs(p, v, cfg.sz.recompute), v, conns))
	ph.rt1.maxRSSKiB = readRuntime().maxRSSKiB

	var values map[string]float64
	if cfg.traced {
		if values, err = perLayer(ph); err != nil {
			return report{}, err
		}
		if cfg.traceOut != "" {
			if err := writeSpans(ph, cfg.traceOut); err != nil {
				return report{}, err
			}
		}
	} else {
		values = endToEnd(ph, setups)
	}
	rep.Metrics = map[string]metric{}
	for name, val := range values {
		rep.Metrics[name] = metric{Value: finite(val), Unit: units[name]}
	}
	if err := errors.Join(oracle...); err != nil {
		rep.Correct = false
		return rep, err
	}
	return rep, nil
}

// logLatencies writes the latency of each op kind to the log, for
// calibrating limits and reading a run by eye.
func logLatencies(w io.Writer, samples []sample) {
	var byKind [2][]float64
	for i := range samples {
		if s := &samples[i]; s.ok {
			byKind[s.op.kind] = append(byKind[s.op.kind], ms(s.latency()))
		}
	}
	for kind, lat := range byKind {
		if len(lat) > 0 {
			fmt.Fprintf(w, "sweepbench: %s ops: n=%d p50=%.3fms p95=%.3fms p99=%.3fms max=%.3fms\n",
				[2]string{"scenario", "stream"}[kind], len(lat),
				quantile(lat, 0.5), quantile(lat, 0.95), quantile(lat, 0.99), quantile(lat, 1))
		}
	}
}

// timerFloor is the generator's wake-up resolution: idle Go processes
// sleep in whole milliseconds on Linux, and calm runs show a send lag
// p99 of ~1.1 ms at any rate.
const timerFloor = 2 * time.Millisecond

// checkTiming warns when the generator itself ran late: among ops
// whose connection was free when they were due, the p99 send lag must
// stay under 10% of the latency limit (or timerFloor, if larger), or
// the run is void. Ops that waited for a busy connection are excluded;
// their wait is load, and their latency already counts it.
func checkTiming(w io.Writer, samples []sample, limit time.Duration) {
	var lags []float64
	for i := range samples {
		if s := &samples[i]; !s.queued && !s.sent.IsZero() {
			lags = append(lags, ms(s.lag()))
		}
	}
	allowed := max(limit/10, timerFloor)
	if lag := quantile(lags, 0.99); lag > ms(allowed) {
		fmt.Fprintf(w, "sweepbench: generator send lag p99 %.3f ms exceeds %v: this run is void\n", lag, allowed)
	}
}

func writeSpans(ph *phase, path string) error {
	spans, err := ph.spans()
	if err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	for i := range spans {
		if err := enc.Encode(&spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	return f.Close()
}

func finite(v float64) float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0
	}
	return v
}

// quantile is the linearly interpolated q-quantile of xs (0 for none).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	i := int(pos)
	if i+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[i] + (pos-float64(i))*(s[i+1]-s[i])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func meanInts(xs []int) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0
	for _, x := range xs {
		sum += x
	}
	return float64(sum) / float64(len(xs))
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

func durationsSeconds(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = d.Seconds()
	}
	return out
}
