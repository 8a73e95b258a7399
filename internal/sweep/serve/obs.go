package serve

import (
	"net/http"
	"time"

	"repro/internal/obs"
	"repro/internal/sweep/store"
)

// Metric namespace for the scenario service. The proxy uses its own
// (see internal/sweep/cluster); both export at GET /metricsz on the
// request port and on the -ops-addr listener.
const metricNS = "sweepd"

// initObs builds the server's metric registry and wires the tracer.
// Every counter the server keeps is the same object /statsz snapshots
// and /metricsz scrapes — one source of truth, two views.
func (s *Server) initObs(tracer *obs.Tracer) {
	reg := obs.NewRegistry()
	s.reg = reg
	s.tracer = tracer

	epHist := func(name string) *obs.Histogram {
		return reg.Histogram(
			metricNS+"_http_request_duration_us",
			"Request wall time per endpoint, microseconds.",
			nil, obs.Label{Key: "endpoint", Value: name})
	}
	s.scenarioEP = epHist("scenario")
	s.sweepEP = epHist("sweep")
	s.deltasEP = epHist("deltas")
	s.segmentsEP = epHist("segments")

	for st := obs.Stage(0); st < obs.NumStages; st++ {
		s.stageHists[st] = reg.Histogram(
			metricNS+"_stage_duration_us",
			"Per-request stage wall time, microseconds.",
			nil, obs.Label{Key: "stage", Value: st.String()})
	}

	s.hits = reg.Counter(metricNS+"_cache_hits_total", "Scenario requests served from cache or store.")
	s.misses = reg.Counter(metricNS+"_cache_misses_total", "Scenario requests that simulated.")
	s.notModified = reg.Counter(metricNS+"_cache_not_modified_total", "Conditional requests answered 304 from warmth alone.")
	s.shed = reg.Counter(metricNS+"_sim_shed_total", "Misses shed 429 by a full admission queue.")
	s.gridShed = reg.Counter(metricNS+"_grid_shed_total", "Grid requests shed 429 by a full job table.")
	s.tlvStreams = reg.Counter(metricNS+"_tlv_streams_total", "Sweep responses that negotiated the binary TLV stream.")
	s.tlvRecords = reg.Counter(metricNS+"_tlv_records_total", "Records framed into TLV streams.")
	s.tlvBatches = reg.Counter(metricNS+"_tlv_batches_total", "Batches flushed on TLV streams.")

	reg.GaugeFunc(metricNS+"_sim_inflight", "Simulations currently running.", func() float64 {
		return float64(s.inflight.Load())
	})
	reg.GaugeFunc(metricNS+"_sim_queued", "Simulations waiting for a worker slot.", func() float64 {
		return float64(s.queued.Load())
	})
	reg.GaugeFunc(metricNS+"_uptime_seconds", "Seconds since process start.", func() float64 {
		return time.Since(s.start).Seconds() //sweepvet:allow(timenow) uptime gauge, metrics only
	})
	obs.RegisterRuntimeGauges(reg, metricNS)

	if s.st != nil {
		for _, op := range opKinds {
			s.storeOpHists[op] = reg.Histogram(
				metricNS+"_store_op_duration_us",
				"Store operation wall time, microseconds.",
				nil, obs.Label{Key: "op", Value: op.String()})
		}
		s.st.SetOpObserver(s.observeStoreOp)
		reg.GaugeFunc(metricNS+"_store_records", "Live records in the backing store.", func() float64 {
			return float64(s.st.Len())
		})
	}
}

// opKinds enumerates the store operations the server tracks.
var opKinds = []store.Op{store.OpGet, store.OpPut, store.OpCompactShard}

// observeStoreOp feeds the store's per-operation timings (get, put,
// per-shard compaction passes) into the op histograms.
func (s *Server) observeStoreOp(op store.Op, shard string, d time.Duration) {
	if int(op) >= len(s.storeOpHists) {
		return
	}
	if h := s.storeOpHists[op]; h != nil {
		h.Observe(d.Microseconds())
	}
}

// Metrics exposes the server's registry; cmd/sweepd mounts it on the
// ops listener and tests scrape it directly.
func (s *Server) Metrics() *obs.Registry { return s.reg }

// Tracer returns the tracer the server was built with (nil when
// tracing is off).
func (s *Server) Tracer() *obs.Tracer { return s.tracer }

// OpsHandler returns the handler for the out-of-band ops listener
// (-ops-addr): pprof, /metricsz, /statsz, /healthz — everything an
// operator needs, none of it on the request port.
func (s *Server) OpsHandler() http.Handler {
	return obs.NewOpsMux(s.reg, http.HandlerFunc(s.handleStatsz))
}

// SetReplicationLag registers the replication-lag gauge
// (segments_behind); the follower daemon wires it to its replicator.
// Call at most once, before scraping starts.
func (s *Server) SetReplicationLag(fn func() float64) {
	s.reg.GaugeFunc(metricNS+"_replication_segments_behind", "Segments the follower still trails the writer by.", fn)
}

// stageFan fans one request's stage timings out to both sinks: the
// request's span (per-trace attribution) and the server's stage
// histograms (fleet-wide distributions). A nil span is inert, so the
// histograms always see every stage.
type stageFan struct {
	span *obs.Span
	s    *Server
}

func (f *stageFan) ObserveStage(st obs.Stage, d time.Duration) {
	f.span.ObserveStage(st, d)
	if st < obs.NumStages {
		f.s.stageHists[st].Observe(d.Microseconds())
	}
}

// stages returns the request's stage sink: the span httpapi.Instrument
// put in its context, fanned out with the server's stage histograms.
func (s *Server) stages(r *http.Request) *stageFan {
	return &stageFan{span: obs.SpanFromContext(r.Context()), s: s}
}
