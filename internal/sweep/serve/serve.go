// Package serve exposes the sweep cache/store as a resident HTTP
// service: a read-through, simulate-on-demand scenario API. It is the
// first subsystem on the serving side of the architecture — everything
// below it (deterministic sweep engine, singleflight cache, segmented
// store) already existed; this puts a long-lived process in front so
// consumers query scenarios over the network instead of linking the Go
// packages.
//
// # Endpoints
//
//	POST /v1/scenario   axes JSON (sweep.Axes) -> one JSONL record,
//	                    served from the store or simulated on miss;
//	                    X-Sweepd-Cache: hit|miss. Clients sending
//	                    "Accept: application/x-sweep-tlv" receive the
//	                    record as one v3 TLV frame instead; answers
//	                    carry "Vary: Accept". Each encoding is built
//	                    once per cache entry and then served as stored
//	                    bytes. Scenario IDs are content hashes, so the
//	                    ID makes the ETag: "<id>" for JSON, "<id>.tlv"
//	                    for TLV. Warm If-None-Match requests answer 304
//	                    with no body
//	POST /v1/sweep      grid JSON (sweep.GridSpec) -> chunked JSONL
//	                    stream in grid order, byte-identical to
//	                    cmd/sweep -out for the same grid; clients
//	                    sending "Accept: application/x-sweep-tlv"
//	                    receive the same records as framed binary TLV
//	                    (record format v3), flushed every 64 records or
//	                    64 KiB instead of once per record
//	POST /v1/deltas     grid JSON -> recommendation deltas over the
//	                    completed grid (edge UPF, peering, slicing)
//	GET  /v1/segments   store segment manifest + generation cursor
//	                    (304 when ?cursor matches); the writer side of
//	                    segment-shipping replication
//	GET  /v1/segments/file?shard=..&seg=..&format=tlv
//	                    raw segment bytes; any other format is a 400
//	GET  /healthz       liveness + record count
//	GET  /statsz        hit/miss/inflight/shed/latency counters, build
//	                    version, uptime, replication lag when following
//
// # Backpressure
//
// Cache misses simulate on a bounded worker pool (Options.SimWorkers)
// fed through an explicit admission queue (Options.QueueDepth). A miss
// that finds the queue full is shed immediately with 429 and a
// Retry-After hint — the server never stacks goroutines behind a
// saturated simulator. QueueDepth < 0 is the store-only replica mode:
// every miss sheds, hits keep serving, which turns a warm cache
// directory into a pure read replica. Grid endpoints additionally
// bound how many grid runs execute at once (Options.MaxGridJobs) and
// reject oversized grids (Options.MaxGridScenarios) before expanding
// them.
//
// Warm requests never touch the queue: a hit is a cache/store read and
// serves at memory/disk speed regardless of simulation pressure.
//
// # Lifecycle
//
// Shutdown is graceful: the HTTP server drains in-flight requests
// (including running simulations — every completed simulation is
// already persisted by the write-through cache before its response is
// sent), then Close releases the store. Nothing is lost by a drain
// timeout: the store's commit point is the segment append inside Put.
package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"net"
	"net/http"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/buildinfo"
	"repro/internal/campaign"
	"repro/internal/obs"
	"repro/internal/sweep"
	"repro/internal/sweep/httpapi"
	"repro/internal/sweep/store"
	"repro/internal/sweep/tlv"
)

// DefaultQueueDepth is the admission-queue slack beyond the running
// simulations when Options.QueueDepth is zero.
const DefaultQueueDepth = 64

// DefaultMaxGridJobs bounds concurrently executing grid requests
// (/v1/sweep, /v1/deltas) when Options.MaxGridJobs is zero.
const DefaultMaxGridJobs = 16

// DefaultMaxGridScenarios rejects grids that expand past this many
// scenarios when Options.MaxGridScenarios is zero.
const DefaultMaxGridScenarios = httpapi.DefaultMaxGridScenarios

// ErrShed reports that the simulation admission queue was full and the
// miss was not simulated. Handlers map it to 429.
var ErrShed = errors.New("serve: simulation admission queue full")

// Options configures a Server. The zero value serves from a fresh
// in-memory cache with GOMAXPROCS simulation workers.
type Options struct {
	// Cache serves and records scenario results. When nil, the server
	// builds its own: layered over the CacheDir store when set,
	// memory-only otherwise, LRU-bounded either way. The server owns
	// the miss path of whatever cache it uses (it installs its
	// admission-controlled runner via SetRunner).
	Cache *sweep.Cache
	// CacheDir, when Cache is nil and non-empty, opens the segmented
	// sweep store at this directory; the server closes it on Close.
	CacheDir string
	// Compact stores summary-only records (meaningful with CacheDir).
	Compact bool
	// SegmentBytes overrides the store's segment-rotation threshold
	// (meaningful with CacheDir; 0 keeps the store default). Small
	// values exercise rotation; replication tests lean on it.
	SegmentBytes int64
	// SimWorkers bounds concurrently running simulations across all
	// requests (default GOMAXPROCS).
	SimWorkers int
	// QueueDepth is the admission queue beyond the running
	// simulations: 0 means DefaultQueueDepth; negative is the
	// store-only replica mode where every miss sheds with 429.
	QueueDepth int
	// MaxGridJobs bounds concurrently executing grid requests
	// (default DefaultMaxGridJobs).
	MaxGridJobs int
	// MaxGridScenarios rejects larger grids with 413 before expansion
	// (default DefaultMaxGridScenarios).
	MaxGridScenarios int
	// Runner simulates one scenario on an admitted miss (default
	// campaign.Run). Tests stub it to count or block simulations.
	Runner func(campaign.Config) (*campaign.Result, error)
	// RetryAfter is the Retry-After hint, in seconds, attached to 429
	// shed responses (default 1). Routing layers read it to decide how
	// long to back a shed replica off before retrying it.
	RetryAfter int
	// Tracer, when non-nil, traces every request: traceparent headers
	// are honoured and propagated, per-request spans carry the stage
	// breakdown, sampled spans export as JSONL, and slow requests log
	// with their trace ID. Nil disables tracing; metrics are always on.
	Tracer *obs.Tracer
}

// EndpointStats is one route's counter snapshot. The quantile fields
// postdate the flat counters and ride behind omitempty (pinned by the
// jsontags baseline), so a zero-traffic snapshot marshals exactly the
// bytes it always did.
type EndpointStats struct {
	Requests       int64 `json:"requests"`
	LatencyUsTotal int64 `json:"latency_us_total"`
	LatencyUsMax   int64 `json:"latency_us_max"`
	LatencyUsP50   int64 `json:"latency_us_p50,omitempty"`
	LatencyUsP95   int64 `json:"latency_us_p95,omitempty"`
	LatencyUsP99   int64 `json:"latency_us_p99,omitempty"`
}

// endpointStats snapshots one route's latency histogram: the single
// source of truth behind both the /statsz counters (count/sum/max plus
// the quantile estimates) and the /metricsz exposition.
func endpointStats(h *obs.Histogram) EndpointStats {
	return EndpointStats{
		Requests:       h.Count(),
		LatencyUsTotal: h.Sum(),
		LatencyUsMax:   h.Max(),
		LatencyUsP50:   h.Quantile(0.50),
		LatencyUsP95:   h.Quantile(0.95),
		LatencyUsP99:   h.Quantile(0.99),
	}
}

// Stats is the /statsz payload.
type Stats struct {
	UptimeS float64 `json:"uptime_s"`
	// Version is the build identity (module version or VCS revision),
	// so fleet tooling can assert what is actually deployed.
	Version  string        `json:"version"`
	Scenario EndpointStats `json:"scenario"`
	Sweep    EndpointStats `json:"sweep"`
	Deltas   EndpointStats `json:"deltas"`
	Segments EndpointStats `json:"segments"`
	Cache    struct {
		Hits   int64 `json:"hits"`
		Misses int64 `json:"misses"`
		// NotModified counts conditional /v1/scenario requests answered
		// 304 from warmth alone — no record read, no body sent.
		NotModified int64 `json:"not_modified"`
		StoreErrors int64 `json:"store_errors"`
	} `json:"cache"`
	Sim struct {
		Workers    int   `json:"workers"`
		QueueDepth int   `json:"queue_depth"`
		Inflight   int64 `json:"inflight"`
		Queued     int64 `json:"queued"`
		Shed       int64 `json:"shed"`
	} `json:"sim"`
	// Grid separates grid-job backpressure from simulation
	// backpressure: grid.shed climbing points at MaxGridJobs, sim.shed
	// at SimWorkers/QueueDepth — two different tuning knobs.
	Grid struct {
		Jobs int   `json:"jobs"`
		Shed int64 `json:"shed"`
	} `json:"grid"`
	// Stream counts TLV-negotiated /v1/sweep responses: streams that
	// chose the binary encoding, records framed into them, and batches
	// flushed — batches/records is the realized batching factor.
	Stream struct {
		TLVStreams int64 `json:"tlv_streams"`
		TLVRecords int64 `json:"tlv_records"`
		TLVBatches int64 `json:"tlv_batches"`
	} `json:"stream"`
	// Replication carries the follower's pull-loop stats (segments
	// behind the writer, bytes shipped) when this process runs in
	// -follow mode; absent on writers and standalone servers.
	Replication any `json:"replication,omitempty"`
}

// Server is the resident scenario-query service. Construct with New;
// serve with ListenAndServe or mount Handler on an existing server.
type Server struct {
	cache *sweep.Cache
	// st is owned when built from CacheDir, nil otherwise; the pointer
	// is immutable after New (handlers read it concurrently with
	// Close), closure is idempotent through stClose.
	st         *store.Store
	stClose    sync.Once
	runner     func(campaign.Config) (*campaign.Result, error)
	simWorkers int
	queueDepth int
	maxGrid    int
	retryAfter string

	// replStats, when set (SetReplicationStats), is snapshotted into
	// Stats.Replication; the follower's replicator installs it.
	replStats atomic.Pointer[func() any]

	admit chan struct{} // admission: queued + running simulations
	slots chan struct{} // running simulations
	grids chan struct{} // executing grid requests

	mux   *http.ServeMux
	hs    *http.Server
	start time.Time

	// Observability: the registry owns every counter and histogram
	// below, so /statsz and /metricsz read the same objects.
	reg          *obs.Registry
	tracer       *obs.Tracer
	stageHists   [obs.NumStages]*obs.Histogram
	storeOpHists [3]*obs.Histogram // indexed by store.Op

	// scenarios resolves each distinct /v1/scenario body once.
	scenarios httpapi.ScenarioMemo

	scenarioEP, sweepEP, deltasEP, segmentsEP *obs.Histogram
	hits, misses, shed, gridShed              *obs.Counter
	notModified                               *obs.Counter
	tlvStreams, tlvRecords, tlvBatches        *obs.Counter
	inflight, queued                          atomic.Int64
}

// New builds a Server from opts (see Options for defaults).
func New(opts Options) (*Server, error) {
	s := &Server{
		cache:      opts.Cache,
		runner:     opts.Runner,
		simWorkers: opts.SimWorkers,
		queueDepth: opts.QueueDepth,
		maxGrid:    opts.MaxGridScenarios,
		start:      time.Now(), //sweepvet:allow(timenow) server start time for /statsz uptime; never in record bytes
	}
	if s.simWorkers <= 0 {
		s.simWorkers = runtime.GOMAXPROCS(0)
	}
	if s.runner == nil {
		s.runner = campaign.Run
	}
	if s.maxGrid <= 0 {
		s.maxGrid = DefaultMaxGridScenarios
	}
	if opts.RetryAfter < 0 {
		return nil, fmt.Errorf("serve: RetryAfter must be >= 0, got %d", opts.RetryAfter)
	}
	retryAfter := opts.RetryAfter
	if retryAfter == 0 {
		retryAfter = 1
	}
	s.retryAfter = fmt.Sprint(retryAfter)
	if s.cache == nil {
		if opts.CacheDir != "" {
			st, err := store.Open(opts.CacheDir, store.Options{Compact: opts.Compact, SegmentBytes: opts.SegmentBytes})
			if err != nil {
				return nil, err
			}
			s.st = st
			s.cache = sweep.NewPersistentCache(st)
		} else {
			s.cache = sweep.NewCache()
		}
		// A resident process must not grow with the scenario space; with
		// a store attached eviction is only a disk read away.
		s.cache.SetLimit(sweep.DefaultSharedLimit)
	}
	if s.queueDepth == 0 {
		s.queueDepth = DefaultQueueDepth
	}
	admitCap := 0 // QueueDepth < 0: store-only replica, shed every miss
	if s.queueDepth > 0 {
		admitCap = s.simWorkers + s.queueDepth
	}
	s.admit = make(chan struct{}, admitCap)
	s.slots = make(chan struct{}, s.simWorkers)
	maxJobs := opts.MaxGridJobs
	if maxJobs <= 0 {
		maxJobs = DefaultMaxGridJobs
	}
	s.grids = make(chan struct{}, maxJobs)

	// Metrics and tracing wire up before the runner: the runner and
	// the store-op observer both write into registry-owned histograms.
	s.initObs(opts.Tracer)

	// The server owns the cache's miss path: every simulation — from
	// /v1/scenario misses and from grid runs alike — funnels through
	// the admission queue and the bounded worker pool. The runner
	// receives the requesting caller's stage observer so queue wait and
	// simulation time land on the right request.
	s.cache.SetRunner(s.run)

	s.mux = http.NewServeMux()
	s.mux.HandleFunc("/v1/scenario", httpapi.Instrument(s.scenarioEP, s.tracer, "scenario", s.handleScenario))
	s.mux.HandleFunc("/v1/sweep", httpapi.Instrument(s.sweepEP, s.tracer, "sweep", s.handleSweep))
	s.mux.HandleFunc("/v1/deltas", httpapi.Instrument(s.deltasEP, s.tracer, "deltas", s.handleDeltas))
	s.mux.HandleFunc("/v1/segments", httpapi.Instrument(s.segmentsEP, s.tracer, "segments", s.handleSegments))
	s.mux.HandleFunc("/v1/segments/file", httpapi.Instrument(s.segmentsEP, s.tracer, "segments_file", s.handleSegmentFile))
	s.mux.HandleFunc("/healthz", s.handleHealthz)
	s.mux.HandleFunc("/statsz", s.handleStatsz)
	s.mux.Handle("/metricsz", s.reg.Handler())
	s.hs = &http.Server{Handler: s.mux}
	return s, nil
}

// run is the cache runner: admission queue, then a worker slot, then
// the simulation. Shedding happens here — inside the singleflight — so
// concurrent identical misses share one admission slot and one 429
// outcome, exactly as they share one simulation on success. Queue wait
// and simulation wall time are attributed to the caller's stage
// observer; an unobserved caller (a Resolve without Want.Stages on
// the shared cache) still feeds the process-wide stage histograms
// through a span-less fan.
func (s *Server) run(cfg campaign.Config, so obs.StageObserver) (*campaign.Result, error) {
	if so == nil {
		so = &stageFan{s: s}
	}
	select {
	case s.admit <- struct{}{}:
	default:
		s.shed.Add(1)
		return nil, ErrShed
	}
	defer func() { <-s.admit }()
	s.queued.Add(1)
	tQueue := time.Now() //sweepvet:allow(timenow) stage timer: feeds metrics/traces only
	s.slots <- struct{}{}
	so.ObserveStage(obs.StageAdmissionWait, time.Since(tQueue)) //sweepvet:allow(timenow) stage timer: feeds metrics/traces only
	s.queued.Add(-1)
	s.inflight.Add(1)
	defer func() {
		<-s.slots
		s.inflight.Add(-1)
	}()
	tSim := time.Now() //sweepvet:allow(timenow) stage timer: feeds metrics/traces only
	res, err := s.runner(cfg)
	so.ObserveStage(obs.StageSimulate, time.Since(tSim)) //sweepvet:allow(timenow) stage timer: feeds metrics/traces only
	return res, err
}

// Handler returns the service's HTTP handler, for mounting on an
// existing server or an httptest server.
func (s *Server) Handler() http.Handler { return s.mux }

// Cache returns the cache the server serves from (the one it built, or
// the one the caller supplied).
func (s *Server) Cache() *sweep.Cache { return s.cache }

// ListenAndServe serves on addr until Shutdown or a listener error.
func (s *Server) ListenAndServe(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	return s.Serve(ln)
}

// Serve serves on ln until Shutdown or a listener error.
func (s *Server) Serve(ln net.Listener) error { return httpapi.Serve(s.hs, ln) }

// Shutdown drains gracefully: stop accepting, wait for in-flight
// requests (simulations included) up to ctx, then flush and release
// the store. Safe to call without a listener (Handler-only servers):
// it just releases the store.
func (s *Server) Shutdown(ctx context.Context) error {
	err := s.hs.Shutdown(ctx)
	if cerr := s.Close(); err == nil {
		err = cerr
	}
	return err
}

// Close releases the store (when the server owns one) without draining
// the HTTP side; it is idempotent and safe while handlers are still
// running: a write-through Put that loses the race to the close fails
// instead of committing, so the cache counts a store error and the
// handler still answers from memory. Prefer Shutdown for running
// listeners.
func (s *Server) Close() error {
	if s.st == nil {
		return nil
	}
	var err error
	s.stClose.Do(func() { err = s.st.Close() })
	return err
}

// shed429 rejects a request with 429 and the configured Retry-After
// hint — the one header routing layers key their backoff on.
func (s *Server) shed429(w http.ResponseWriter, msg string) {
	w.Header().Set("Retry-After", s.retryAfter)
	httpapi.Error(w, http.StatusTooManyRequests, msg)
}

// handleScenario resolves one scenario by axes: a store/cache hit is a
// read; a miss simulates through the admission queue or sheds 429.
func (s *Server) handleScenario(w http.ResponseWriter, r *http.Request) {
	if !httpapi.RequireMethod(w, r, http.MethodPost) {
		return
	}
	q, ok := s.scenarios.Parse(w, r)
	if !ok {
		return
	}
	// Scenario IDs are content hashes of the canonical config, so the ID
	// names the record's bytes in each encoding and makes its ETag: a
	// conditional request for a warm id needs no record read and no
	// body — the client's copy is current by construction (records are
	// immutable once acknowledged). Cold ids fall through to the full
	// path: a 304 would vouch for bytes this server never produced.
	enc := httpapi.Negotiate(r)
	if httpapi.ETagMatch(r.Header.Get("If-None-Match"), q.ETag(enc)) && s.cache.Contains(q.Scenario.ID) {
		s.notModified.Add(1)
		httpapi.ScenarioHeaders(w.Header(), q, enc, "X-Sweepd-Cache", true)
		w.WriteHeader(http.StatusNotModified)
		return
	}
	fan := s.stages(r)
	res, cached, err := s.cache.Resolve(q.Scenario, sweep.Want{Stages: fan})
	switch {
	case errors.Is(err, ErrShed):
		s.shed429(w, "simulation queue full; retry later")
		return
	case err != nil:
		// Simulation errors are deterministic config errors (an
		// off-grid cell, a slicing/target-cells conflict) that no retry
		// can fix — the same classification the grid endpoints use.
		httpapi.Error(w, http.StatusBadRequest, err.Error())
		return
	}
	// A record's bytes depend on its scenario ID alone, so the cache
	// entry keeps them per encoding: only the first request in an
	// encoding builds the record and encodes it, and a miss encodes
	// only what it was asked for.
	tEnc := time.Now() //sweepvet:allow(timenow) stage timer: feeds metrics/traces only
	var encErr error
	body := s.cache.Rendered(q.Scenario.ID, enc, func() []byte {
		rec := sweep.RecordOf(sweep.ScenarioRun{Scenario: q.Scenario, Result: res})
		var b []byte
		b, encErr = renderRecord(&rec, enc)
		return b
	})
	if encErr != nil {
		httpapi.Error(w, http.StatusInternalServerError, encErr.Error())
		return
	}
	if cached {
		s.hits.Add(1)
	} else {
		s.misses.Add(1)
	}
	httpapi.ScenarioHeaders(w.Header(), q, enc, "X-Sweepd-Cache", cached)
	httpapi.WriteScenario(w, enc, body)
	fan.ObserveStage(obs.StageEncode, time.Since(tEnc)) //sweepvet:allow(timenow) stage timer: feeds metrics/traces only
}

// renderRecord encodes one /v1/scenario body: the JSON line
// json.Encoder writes, or one v3 TLV frame.
func renderRecord(rec *sweep.Record, enc sweep.Encoding) ([]byte, error) {
	if enc == sweep.EncodingTLV {
		return tlv.AppendRecord(nil, rec), nil
	}
	b, err := json.Marshal(rec)
	if err != nil {
		return nil, fmt.Errorf("serve: encode record: %w", err)
	}
	return append(b, '\n'), nil
}

// acquireGridJob bounds concurrently executing grid requests; a full
// job table sheds exactly like a full simulation queue.
func (s *Server) acquireGridJob(w http.ResponseWriter) bool {
	select {
	case s.grids <- struct{}{}:
		return true
	default:
		s.gridShed.Add(1)
		s.shed429(w, "too many concurrent grid requests; retry later")
		return false
	}
}

// handleSweep streams a whole grid in grid order. The default body is
// JSONL, flushed record by record, byte-identical to cmd/sweep -out
// for the same grid; clients negotiating "Accept:
// application/x-sweep-tlv" get the same records as framed v3 TLV,
// flushed in batches instead of once per record (see httpapi.Stream).
// Cache accounting arrives in HTTP trailers either way (the body is
// already streaming when the totals are known).
func (s *Server) handleSweep(w http.ResponseWriter, r *http.Request) {
	if !httpapi.RequireMethod(w, r, http.MethodPost) {
		return
	}
	g, ok := httpapi.ParseGrid(w, r, s.maxGrid)
	if !ok {
		return
	}
	if !s.acquireGridJob(w) {
		return
	}
	defer func() { <-s.grids }()

	fan := s.stages(r)
	st := httpapi.NewStream(w, r, fan)
	w.Header().Set("Trailer", "X-Sweepd-Cache-Hits, X-Sweepd-Cache-Misses")
	hits, misses, err := sweep.RunEach(g, sweep.Options{Workers: s.simWorkers, Cache: s.cache, Stages: fan},
		func(run sweep.ScenarioRun) error {
			rec := sweep.RecordOf(run)
			return st.WriteRecord(&rec)
		})
	if err == nil {
		err = st.Flush()
	}
	if err != nil {
		st.AbortIfStarted()
		if errors.Is(err, ErrShed) {
			s.shed429(w, err.Error())
		} else {
			httpapi.Error(w, http.StatusBadRequest, err.Error())
		}
		return
	}
	if st.Encoding() == sweep.EncodingTLV {
		s.tlvStreams.Add(1)
		s.tlvRecords.Add(st.Records())
		s.tlvBatches.Add(st.Batches())
	}
	s.hits.Add(int64(hits))
	s.misses.Add(int64(misses))
	w.Header().Set("X-Sweepd-Cache-Hits", strconv.Itoa(hits))
	w.Header().Set("X-Sweepd-Cache-Misses", strconv.Itoa(misses))
}

// DeltasResponse is the /v1/deltas payload.
type DeltasResponse struct {
	Scenarios   int                  `json:"scenarios"`
	Variants    int                  `json:"variants"`
	CacheHits   int                  `json:"cache_hits"`
	CacheMisses int                  `json:"cache_misses"`
	Deltas      []sweep.VariantDelta `json:"deltas"`
}

// handleDeltas completes a grid (warm grids never simulate) and
// returns its recommendation deltas.
func (s *Server) handleDeltas(w http.ResponseWriter, r *http.Request) {
	if !httpapi.RequireMethod(w, r, http.MethodPost) {
		return
	}
	g, ok := httpapi.ParseGrid(w, r, s.maxGrid)
	if !ok {
		return
	}
	if !s.acquireGridJob(w) {
		return
	}
	defer func() { <-s.grids }()

	res, err := sweep.Run(g, sweep.Options{Workers: s.simWorkers, Cache: s.cache, Stages: s.stages(r)})
	if err != nil {
		if errors.Is(err, ErrShed) {
			s.shed429(w, err.Error())
		} else {
			httpapi.Error(w, http.StatusBadRequest, err.Error())
		}
		return
	}
	s.hits.Add(int64(res.CacheHits))
	s.misses.Add(int64(res.CacheMisses))
	deltas := res.Deltas()
	if deltas == nil {
		deltas = []sweep.VariantDelta{}
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(DeltasResponse{
		Scenarios:   len(res.Scenarios),
		Variants:    len(res.Variants),
		CacheHits:   res.CacheHits,
		CacheMisses: res.CacheMisses,
		Deltas:      deltas,
	})
}

// SegmentManifest is the /v1/segments payload: the store's replication
// cursor plus every segment file with its committed size. A follower
// diffs it against its own manifest and ships exactly the files that
// differ; the index is never shipped (followers re-derive it from the
// same bytes).
type SegmentManifest struct {
	Generation int64               `json:"generation"`
	Segments   []store.SegmentInfo `json:"segments"`
}

// handleSegments serves the segment manifest — the writer side of
// segment-shipping replication. ?cursor=<generation> short-circuits an
// unchanged store to 304, so idle pollers cost one int compare.
func (s *Server) handleSegments(w http.ResponseWriter, r *http.Request) {
	if !httpapi.RequireMethod(w, r, http.MethodGet) {
		return
	}
	if s.st == nil {
		httpapi.Error(w, http.StatusNotFound, "no store attached; segment shipping needs -cache-dir")
		return
	}
	gen, segs := s.st.Manifest()
	if c := r.URL.Query().Get("cursor"); c != "" {
		if cur, err := strconv.ParseInt(c, 10, 64); err == nil && cur == gen {
			w.WriteHeader(http.StatusNotModified)
			return
		}
	}
	if segs == nil {
		segs = []store.SegmentInfo{}
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(SegmentManifest{Generation: gen, Segments: segs})
}

// handleSegmentFile streams one segment's raw bytes. A segment that
// vanished between manifest and fetch (compaction won the race) is a
// 404 the follower resolves by re-polling the manifest; any other read
// failure is a 500 the follower reports as lag, never skips.
func (s *Server) handleSegmentFile(w http.ResponseWriter, r *http.Request) {
	if !httpapi.RequireMethod(w, r, http.MethodGet) {
		return
	}
	if s.st == nil {
		httpapi.Error(w, http.StatusNotFound, "no store attached; segment shipping needs -cache-dir")
		return
	}
	q := r.URL.Query()
	seg, err := strconv.Atoi(q.Get("seg"))
	if err != nil {
		httpapi.Error(w, http.StatusBadRequest, "seg must be an integer")
		return
	}
	// ?format= echoes the manifest entry's "tlv"; any other, absent
	// included (a follower from before TLV asking for JSONL), is a bad
	// reference.
	if err := store.CheckSegmentFormat(q.Get("format")); err != nil {
		httpapi.Error(w, http.StatusBadRequest, err.Error())
		return
	}
	data, err := s.st.ReadSegment(q.Get("shard"), seg)
	if err != nil {
		code := http.StatusInternalServerError
		switch {
		case errors.Is(err, store.ErrBadSegmentRef):
			code = http.StatusBadRequest
		case errors.Is(err, fs.ErrNotExist):
			code = http.StatusNotFound
		}
		httpapi.Error(w, code, err.Error())
		return
	}
	w.Header().Set("Content-Type", tlv.MediaType)
	w.Write(data)
}

// Store returns the disk store the server owns (nil when serving a
// caller-supplied cache or a memory-only one). Follower processes hand
// it to the replication pull loop so ingested segments land in the same
// instance the handlers read.
func (s *Server) Store() *store.Store { return s.st }

// SetReplicationStats installs a snapshot function whose result is
// embedded in /statsz as "replication" — the follower's pull loop
// reports its lag through this.
func (s *Server) SetReplicationStats(fn func() any) {
	s.replStats.Store(&fn)
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	payload := map[string]any{
		"status":   "ok",
		"uptime_s": time.Since(s.start).Seconds(), //sweepvet:allow(timenow) /statsz uptime
	}
	if s.st != nil {
		payload["records"] = s.st.Len()
		payload["cache_dir"] = s.st.Dir()
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(payload)
}

// StatsSnapshot assembles the /statsz payload: every number read from
// the same registry-owned counters and histograms /metricsz exposes.
// Benchmarks use it to report endpoint latency quantiles.
func (s *Server) StatsSnapshot() Stats {
	var st Stats
	st.UptimeS = time.Since(s.start).Seconds() //sweepvet:allow(timenow) /statsz uptime
	st.Version = buildinfo.Version()
	st.Scenario = endpointStats(s.scenarioEP)
	st.Sweep = endpointStats(s.sweepEP)
	st.Deltas = endpointStats(s.deltasEP)
	st.Segments = endpointStats(s.segmentsEP)
	st.Cache.Hits = s.hits.Value()
	st.Cache.Misses = s.misses.Value()
	st.Cache.NotModified = s.notModified.Value()
	st.Cache.StoreErrors = s.cache.StoreErrors()
	if fn := s.replStats.Load(); fn != nil {
		st.Replication = (*fn)()
	}
	st.Sim.Workers = s.simWorkers
	st.Sim.QueueDepth = s.queueDepth
	st.Sim.Inflight = s.inflight.Load()
	st.Sim.Queued = s.queued.Load()
	st.Sim.Shed = s.shed.Value()
	st.Grid.Jobs = cap(s.grids)
	st.Grid.Shed = s.gridShed.Value()
	st.Stream.TLVStreams = s.tlvStreams.Value()
	st.Stream.TLVRecords = s.tlvRecords.Value()
	st.Stream.TLVBatches = s.tlvBatches.Value()
	return st
}

func (s *Server) handleStatsz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(s.StatsSnapshot())
}
