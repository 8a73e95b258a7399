package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"runtime"
	"runtime/metrics"
	"sort"
	"syscall"
	"time"

	"repro/internal/campaign"
	"repro/internal/corenet"
	"repro/internal/des"
	"repro/internal/geo"
	"repro/internal/obs"
	"repro/internal/sweep"
	"repro/internal/sweep/tlv"
	"repro/internal/topo"
)

// runtimeStats is the process counters read at the edges of the timed
// phase.
type runtimeStats struct {
	allocObjects uint64
	allocBytes   uint64
	gcCPU        float64 // seconds
	totalCPU     float64 // seconds, all classes incl. idle
	processCPU   time.Duration
	maxRSSKiB    int64
}

func readRuntime() runtimeStats {
	s := []metrics.Sample{
		{Name: "/gc/heap/allocs:objects"},
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(s)
	var ru syscall.Rusage
	// Getrusage(RUSAGE_SELF) cannot fail with a valid pointer.
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return runtimeStats{
		allocObjects: s[0].Value.Uint64(),
		allocBytes:   s[1].Value.Uint64(),
		gcCPU:        s[2].Value.Float64(),
		totalCPU:     s[3].Value.Float64(),
		processCPU:   time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		maxRSSKiB:    ru.Maxrss,
	}
}

// allocsSince counts heap objects allocated by the process since
// before.
func allocsSince(before runtimeStats) uint64 {
	return readRuntime().allocObjects - before.allocObjects
}

// phase is everything the timed phase left behind for the metrics.
type phase struct {
	p       *plan
	st      *stack
	samples []sample
	start   time.Time
	elapsed time.Duration // start to the last completion
	before  snapshot
	after   snapshot
	rt0     runtimeStats
	rt1     runtimeStats
	// hops are the timed phase's requests into sweepd: the proxy's
	// backend hops on cluster-mix, the generator's requests elsewhere.
	hops []hop
	// runsAtStart is each node's simulation count when the phase began.
	runsAtStart []int
	// replays measured on the live stack before it stopped.
	cacheGetUs, storeGetUs float64
	clientSpans            *spanSink
}

func (ph *phase) ok() []*sample {
	var out []*sample
	for i := range ph.samples {
		if ph.samples[i].ok {
			out = append(out, &ph.samples[i])
		}
	}
	return out
}

// endToEnd computes the user-visible metrics of an untraced run.
func endToEnd(ph *phase, setups []time.Duration) map[string]float64 {
	ok := ph.ok()
	lat := make([]float64, 0, len(ok))
	within, records := 0, 0
	for _, s := range ok {
		l := s.latency()
		lat = append(lat, ms(l))
		if l <= ph.p.w.limit[s.op.kind] {
			within++
		}
		records += s.records
	}
	secs := ph.elapsed.Seconds()
	return map[string]float64{
		"setup_s":       median(durationsSeconds(setups)),
		"p50_ms":        quantile(lat, 0.50),
		"p95_ms":        quantile(lat, 0.95),
		"goodput_rps":   float64(within) / secs,
		"records_per_s": float64(records) / secs,
		"allocs_per_op": float64(ph.rt1.allocObjects-ph.rt0.allocObjects) / float64(max(len(ok), 1)),
		"rss_peak_mb":   float64(ph.rt1.maxRSSKiB) / 1024,
	}
}

// perLayer computes the traced run's per-layer metrics: spans and
// server counters over the timed phase, server lifetimes where a layer
// only works during set-up, and replays for the simulator layers.
func perLayer(ph *phase) (map[string]float64, error) {
	m := map[string]float64{}
	ok := ph.ok()
	nOps := float64(max(len(ok), 1))

	// loadgen
	var lags []float64
	sent := 0
	for i := range ph.samples {
		if s := &ph.samples[i]; !s.sent.IsZero() {
			sent++
			lags = append(lags, ms(s.lag()))
		}
	}
	m["loadgen.lag_p99_ms"] = quantile(lags, 0.99)
	m["loadgen.sent"] = float64(sent)
	m["loadgen.completed"] = float64(len(ok))

	// http and serve, from the spans of the timed phase's traces.
	spans, err := ph.spans()
	if err != nil {
		return nil, err
	}
	children := map[string][]*obs.SpanRecord{}
	for i := range spans {
		sp := &spans[i]
		if sp.Parent != "" {
			children[sp.Parent] = append(children[sp.Parent], sp)
		}
	}
	var overhead, self []float64
	var encode, flush, dur, records int64
	respBytes := 0
	for _, s := range ok {
		respBytes += s.bytes
		front := children[s.span]
		if len(front) != 1 {
			return nil, fmt.Errorf("trace %s: %d server spans under the client span, want 1", s.trace, len(front))
		}
		overhead = append(overhead, float64(s.done.Sub(s.sent).Microseconds()-front[0].DurUs))
		sweepds := front
		if front[0].Service != "sweepd" {
			sweepds = children[front[0].Span]
		}
		for _, sp := range sweepds {
			var staged int64
			for _, us := range sp.Stages {
				staged += us
			}
			self = append(self, float64(sp.DurUs-staged))
			encode += sp.Stages[obs.StageEncode.String()]
			flush += sp.Stages[obs.StageFlush.String()]
			dur += sp.DurUs
			if sp.Name == "sweep" {
				records += int64(len(s.op.grid.scs))
			} else {
				records++
			}
		}
	}
	m["http.overhead_us_p50"] = quantile(overhead, 0.50)
	m["http.resp_bytes_per_op"] = float64(respBytes) / nOps
	m["serve.handler_self_us_p50"] = quantile(self, 0.50)
	m["serve.encode_us_per_record"] = ratio(float64(encode), float64(records))
	m["serve.flush_share"] = ratio(float64(flush), float64(dur))
	hits, misses := nodeDelta(ph.before, ph.after, mHits), nodeDelta(ph.before, ph.after, mMisses)
	m["serve.hits"] = float64(hits)
	m["serve.misses"] = float64(misses)

	// sweep (cache) and store
	m["sweep.get_us_mean"] = ph.cacheGetUs
	m["sweep.hit_ratio"] = ratio(float64(hits), float64(hits+misses))
	m["store.get_us_mean"] = ph.storeGetUs
	m["store.gets_per_op"] = float64(nodeDelta(ph.before, ph.after, mGets)) / nOps
	var putUs, puts float64
	for _, n := range ph.after.nodes {
		putUs += n.get(mPutUsSum)
		puts += n.get(mPuts)
	}
	m["store.put_us_mean"] = ratio(putUs, puts)
	m["store.puts"] = float64(nodeDelta(ph.before, ph.after, mPuts))

	// campaign: the wrapped serve.Options.Runner of every node.
	var life []float64
	var pings []int
	var timedRuns int
	var busy time.Duration
	for i, n := range ph.st.nodes {
		durs, ps := n.runs.snapshot()
		for j, d := range durs {
			life = append(life, ms(d))
			if j >= ph.runsAtStart[i] {
				timedRuns++
				busy += d
			}
		}
		pings = append(pings, ps...)
	}
	m["campaign.runs"] = float64(timedRuns)
	m["campaign.run_ms_p50"] = quantile(life, 0.50)
	m["campaign.pings_per_run"] = meanInts(pings)
	m["campaign.busy_share"] = busy.Seconds() / (ph.elapsed.Seconds() * float64(runtime.GOMAXPROCS(0)))

	// routing and des: replays of one paper-default campaign.
	if err := simReplays(ph.p, m); err != nil {
		return nil, err
	}

	// tlv and cluster
	lines := ph.recordLines(256)
	tlvBytes, reframeUs, err := codecReplay(lines)
	if err != nil {
		return nil, err
	}
	m["tlv.bytes_per_record"] = tlvBytes
	m["tlv.records_per_batch"] = ratio(float64(nodeDelta(ph.before, ph.after, mTLVRecords)),
		float64(nodeDelta(ph.before, ph.after, mTLVBatches)))
	var hopUs []float64
	replica := 0
	for _, h := range ph.hops {
		hopUs = append(hopUs, us(h.dur))
		if ph.st.proxy != nil && "http://"+h.host != ph.st.nodes[0].url {
			replica++
		}
	}
	m["cluster.backend_requests_per_op"] = float64(len(ph.hops)) / nOps
	m["cluster.backend_us_p50"] = quantile(hopUs, 0.50)
	m["cluster.replica_share"] = ratio(float64(replica), float64(len(ph.hops)))
	m["cluster.reframe_us_per_record"] = reframeUs

	// runtime
	m["runtime.alloc_bytes_per_op"] = float64(ph.rt1.allocBytes-ph.rt0.allocBytes) / nOps
	m["runtime.gc_cpu_share"] = ratio(ph.rt1.gcCPU-ph.rt0.gcCPU, ph.rt1.totalCPU-ph.rt0.totalCPU)
	m["runtime.cpu_busy_share"] = (ph.rt1.processCPU - ph.rt0.processCPU).Seconds() /
		(ph.elapsed.Seconds() * float64(runtime.GOMAXPROCS(0)))

	// obs: what minting and exporting the spans cost, against the
	// traced p50.
	spanUs := spanReplay()
	var lat []float64
	traces := map[string]bool{}
	for _, s := range ok {
		lat = append(lat, us(s.latency()))
		traces[s.trace] = true
	}
	timedSpans := 0
	for i := range spans {
		if traces[spans[i].Trace] {
			timedSpans++
		}
	}
	m["obs.span_us"] = spanUs
	m["obs.trace_overhead_pct"] = 100 * float64(timedSpans) / nOps * spanUs / quantile(lat, 0.50)
	return m, nil
}

// spans returns every span the client and the servers exported.
func (ph *phase) spans() ([]obs.SpanRecord, error) {
	sinks := []*spanSink{ph.clientSpans}
	for _, n := range ph.st.nodes {
		sinks = append(sinks, n.sink)
	}
	if ph.st.proxy != nil {
		sinks = append(sinks, ph.st.proxy.sink)
	}
	var out []obs.SpanRecord
	for _, s := range sinks {
		recs, err := s.spans()
		if err != nil {
			return nil, err
		}
		out = append(out, recs...)
	}
	return out, nil
}

// recordLines returns up to n distinct served record lines, in a
// deterministic order.
func (ph *phase) recordLines(n int) [][]byte {
	ids := make([]string, 0, len(ph.st.refs))
	for id := range ph.st.refs {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	var out [][]byte
	for _, id := range ids {
		if len(out) == n {
			break
		}
		out = append(out, ph.st.refs[id])
	}
	return out
}

// replayIDs is the timed phase's scenario read sequence: each op's
// scenario, or its grid's scenarios for a stream.
func (ph *phase) replayIDs(limit int) []string {
	var ids []string
	for i := range ph.samples {
		o := ph.samples[i].op
		if o.kind == opScenario {
			ids = append(ids, o.sc.id)
		} else {
			for _, sc := range o.grid.scs {
				ids = append(ids, sc.id)
			}
		}
		if len(ids) >= limit {
			return ids[:limit]
		}
	}
	return ids
}

// cacheStoreReplay times the cache layer (Cache.Get: LRU lookup and
// clone, or store read, decode and insert) over the timed phase's read
// sequence, and the store layer (Store.Get: ReadAt, decode, restore)
// over its distinct scenarios, on the sweepd that served reads. It runs
// after the timed phase, before the stack stops.
func cacheStoreReplay(ph *phase) error {
	n := ph.st.nodes[0]
	if len(ph.st.nodes) > 1 {
		n = ph.st.nodes[1] // cluster-mix: a replica serves the reads
	}
	ids := ph.replayIDs(4000)
	var distinct []string
	seen := map[string]bool{}
	for _, id := range ids {
		if !seen[id] {
			seen[id] = true
			distinct = append(distinct, id)
		}
	}
	t0 := time.Now()
	for _, id := range ids {
		if _, ok := n.srv.Cache().Get(id); !ok {
			return &mismatchError{id, "cache replay: served scenario is not in the cache"}
		}
	}
	ph.cacheGetUs = us(time.Since(t0)) / float64(max(len(ids), 1))
	st := n.srv.Store()
	t0 = time.Now()
	for _, id := range distinct {
		if _, ok := st.Get(id); !ok {
			return &mismatchError{id, "store replay: served scenario is not in the store"}
		}
	}
	ph.storeGetUs = us(time.Since(t0)) / float64(max(len(distinct), 1))
	return nil
}

// simReplays measures the simulator layers on one paper-default
// scenario of the plan: campaign.Run itself, the same campaign's
// routing calls replayed through the public constructors (two Route
// calls per mobile ping via UserPlane.Establish, one per wired ping),
// and its event count replayed through the DES. Each is the median of
// three repetitions.
func simReplays(p *plan, m map[string]float64) error {
	sc := p.ops[0].sc
	if len(p.hot) > 0 {
		sc = p.hot[0]
	}
	var runs, routes, events []float64
	var res *campaign.Result
	var calls int
	var allocs uint64
	for i := 0; i < 3; i++ {
		t0 := time.Now()
		r, err := campaign.Run(sc.cfg)
		if err != nil {
			return err
		}
		runs = append(runs, float64(time.Since(t0)))
		res = r
		c, d, a, err := routingReplay(sc.cfg, res.TotalMeasurements, res.Wired.N())
		if err != nil {
			return err
		}
		routes = append(routes, float64(d))
		calls, allocs = c, a
		events = append(events, float64(desReplay(p.seed, res.TotalMeasurements+res.Wired.N())))
	}
	nEvents := res.TotalMeasurements + res.Wired.N()
	m["routing.calls_per_run"] = float64(calls)
	m["routing.route_us"] = median(routes) / float64(time.Microsecond) / float64(calls)
	m["routing.allocs_per_call"] = float64(allocs) / float64(calls)
	m["routing.share_of_run"] = median(routes) / median(runs)
	m["des.events_per_run"] = float64(nEvents)
	m["des.event_ns"] = median(events) / float64(nEvents)
	return nil
}

// routingReplay builds the campaign's topology and user plane with the
// public constructors and issues its routing call mix: mobile pings
// cycle the probe targets through Establish, wired pings route between
// probe pairs.
func routingReplay(cfg campaign.Config, mobile, wired int) (calls int, d time.Duration, allocs uint64, err error) {
	c := cfg.Canonical()
	ce := topo.BuildCentralEurope()
	if c.LocalPeering {
		ce.EnableLocalPeering()
	}
	targets, err := campaign.AddSectorProbes(ce, geo.NewKlagenfurtGrid(), c.TargetCells)
	if err != nil {
		return 0, 0, 0, err
	}
	up := corenet.NewUserPlane(ce)
	upf := up.Central
	if c.EdgeUPF {
		upf = up.Edge
	}
	n := len(targets)
	rt0 := readRuntime()
	t0 := time.Now()
	for k := 0; k < mobile; k++ {
		if _, err := up.Establish(upf, targets[k%n].Host); err != nil {
			return 0, 0, 0, err
		}
	}
	for k := 0; k < wired; k++ {
		i := k % n
		j := (i + 1 + (k/n)%(n-1)) % n
		if _, err := up.Router.Route(targets[i].Host, targets[j].Host); err != nil {
			return 0, 0, 0, err
		}
	}
	d = time.Since(t0)
	return 2*mobile + wired, d, allocsSince(rt0), nil
}

// desReplay schedules n no-op events at seeded times over a campaign's
// virtual span (all queued up front, as the campaign does) and runs the
// calendar dry.
func desReplay(seed uint64, n int) time.Duration {
	r := rand.New(rand.NewPCG(seed, 7))
	sim := des.NewSimulator(seed)
	fired := 0
	fn := func() { fired++ }
	t0 := time.Now()
	for i := 0; i < n; i++ {
		sim.ScheduleAt(time.Duration(r.Int64N(int64(6*time.Hour))), fn)
	}
	_ = sim.Run() // nothing calls Stop, so Run drains without error
	return time.Since(t0)
}

// codecReplay encodes the served records as TLV frames, and times the
// proxy's per-record re-framing (JSON line → Record → TLV frame).
func codecReplay(lines [][]byte) (bytesPerRecord, reframeUs float64, err error) {
	if len(lines) == 0 {
		return 0, 0, nil
	}
	var frame []byte
	total := 0
	const passes = 4
	t0 := time.Now()
	for pass := 0; pass < passes; pass++ {
		for _, line := range lines {
			var rec sweep.Record
			if err := json.Unmarshal(line, &rec); err != nil {
				return 0, 0, err
			}
			frame = tlv.AppendRecord(frame[:0], &rec)
			if pass == 0 {
				total += len(frame)
			}
		}
	}
	d := time.Since(t0)
	return float64(total) / float64(len(lines)), us(d) / float64(passes*len(lines)), nil
}

// spanReplay times one traced hop's span work: start from a propagated
// traceparent, two stage observations, finish and export.
func spanReplay() float64 {
	var sink bytes.Buffer
	tr := obs.NewTracer(obs.TracerOptions{Service: "replay", Writer: &sink, SampleN: 1})
	parent := tr.StartSpan("root", "").Traceparent()
	const n = 2000
	t0 := time.Now()
	for i := 0; i < n; i++ {
		sp := tr.StartSpan("scenario", parent)
		sp.ObserveStage(obs.StageStoreRead, time.Microsecond)
		sp.ObserveStage(obs.StageEncode, time.Microsecond)
		sp.Finish()
		if sink.Len() > 1<<20 {
			sink.Reset()
		}
	}
	return us(time.Since(t0)) / n
}
