package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/buildinfo"
	"repro/internal/obs"
	"repro/internal/sweep"
	"repro/internal/sweep/httpapi"
	"repro/internal/sweep/store"
	"repro/internal/sweep/tlv"
)

// DefaultCacheEntries bounds the proxy's response cache when Options
// leave it zero. One entry holds a record in each encoding a client has
// asked for: ~3.2 KB as a JSON line, ~1.3 KB as a TLV frame. The
// default is ~13 MiB of the hottest scenarios when clients read JSON,
// ~18 MiB when they read both.
const DefaultCacheEntries = 4096

// DefaultHealthInterval is the replica health-probe period when Options
// leave it zero.
const DefaultHealthInterval = 2 * time.Second

// DefaultIdleConnsPerHost is how many idle connections per backend the
// proxy's own client keeps when Options leave Client nil. It also sets
// that client's sweep fan-out width.
const DefaultIdleConnsPerHost = 16

// Options configures a Proxy.
type Options struct {
	// Writer is the base URL of the writer sweepd — the only member
	// that simulates misses and appends to the authoritative store. It
	// is the final fallback for every scenario, so the proxy is correct
	// (if slower) with zero replicas.
	Writer string
	// Replicas are base URLs of read replicas (sweepd -follow). They
	// form the consistent-hash ring; scenario requests prefer the
	// shard's owner so each replica's LRU stays hot on its own slice of
	// the ID space.
	Replicas []string
	// HealthInterval is the replica probe period (DefaultHealthInterval
	// when zero; negative disables the loop — tests drive CheckHealth
	// directly).
	HealthInterval time.Duration
	// CacheEntries bounds the response cache (DefaultCacheEntries when
	// zero; negative disables caching).
	CacheEntries int
	// Vnodes is the ring's virtual-node count per replica
	// (DefaultVnodes when <= 0).
	Vnodes int
	// MaxGridScenarios rejects larger sweep grids with 413 before
	// expansion (httpapi.DefaultMaxGridScenarios when zero).
	MaxGridScenarios int
	// Client performs backend requests. When nil, the proxy uses a clone
	// of http.DefaultTransport that keeps DefaultIdleConnsPerHost idle
	// connections per backend. A sweep works through its cells with as
	// many workers as the client keeps idle connections per host: its
	// *http.Transport's MaxIdleConnsPerHost, or net/http's default of 2
	// behind any other RoundTripper.
	//
	// Scenario hops, single and fanned out, go straight to the client's
	// Transport (http.DefaultTransport when nil), with a positive
	// Timeout applied through each hop's context: backends never
	// redirect or set cookies, so CheckRedirect and Jar are not
	// consulted. Health probes and /v1/deltas go through the client
	// whole.
	Client *http.Client
	// Tracer, when non-nil, traces every proxied request: incoming
	// traceparent headers are honoured, every backend hop carries the
	// request's trace context, sampled spans export as JSONL, and slow
	// requests log with their trace ID.
	Tracer *obs.Tracer
}

// member is one routed-to backend with its health and backoff state.
type member struct {
	url         string
	scenarioURL string   // url + "/v1/scenario"
	route       []string // url as a shared X-Sweepd-Route header value
	healthy     atomic.Bool
	// backoffUntil (unix nanos) honors the Retry-After a 429 carried:
	// until then the member is skipped, exactly as if unhealthy, but
	// without an eject — shedding is load, not failure.
	backoffUntil atomic.Int64

	requests, errs, shed atomic.Int64
	ejects, readmits     atomic.Int64

	// Probe detail for statsz/metrics: the last /healthz probe's
	// outcome and time, and how many probes in a row have failed.
	lastProbeOK   atomic.Bool
	lastProbeNano atomic.Int64
	consecFails   atomic.Int64
}

func newMember(url string) *member {
	return &member{url: url, scenarioURL: url + "/v1/scenario", route: []string{url}}
}

func (m *member) backingOff(now time.Time) bool {
	return now.UnixNano() < m.backoffUntil.Load()
}

// setHealth applies a health verdict, counting the transition.
func (m *member) setHealth(ok bool) {
	if m.healthy.CompareAndSwap(!ok, ok) {
		if ok {
			m.readmits.Add(1)
		} else {
			m.ejects.Add(1)
		}
	}
}

// recordProbe applies one /healthz probe result: the probe detail the
// statsz member view exposes, then the health transition itself.
func (m *member) recordProbe(ok bool) {
	m.lastProbeOK.Store(ok)
	m.lastProbeNano.Store(time.Now().UnixNano()) //sweepvet:allow(timenow) probe timestamp for statsz/metrics
	if ok {
		m.consecFails.Store(0)
	} else {
		m.consecFails.Add(1)
	}
	m.setHealth(ok)
}

// Proxy is the cluster front door: it owns no simulator and no store,
// only the routing table, the health states, and a response cache keyed
// by scenario ID. Construct with NewProxy; serve with ListenAndServe or
// mount Handler.
type Proxy struct {
	writer   *member
	replicas []*member // in ring member order, so ring.shards indexes it
	ring     *Ring     // nil with zero replicas

	client   *http.Client
	hop      http.RoundTripper // the client's transport, for scenario hops
	cache    *responseCache    // nil when caching is disabled
	maxGrid  int
	width    int // sweep fan-out workers: fanOutWidth(hop)
	interval time.Duration
	mux      *http.ServeMux
	hs       *http.Server
	start    time.Time
	stop     chan struct{}
	stopOnce sync.Once
	healthWG sync.WaitGroup

	// ownsClient: the client came from defaultClient, so Close drops
	// its idle connections.
	ownsClient bool

	// scenarios resolves each distinct /v1/scenario body once.
	scenarios httpapi.ScenarioMemo

	// Observability: the registry owns every counter and histogram
	// below, so /statsz and /metricsz read the same objects. Endpoint
	// request counts are the histograms' counts.
	reg                        *obs.Registry
	tracer                     *obs.Tracer
	scenarioH, sweepH, deltasH *obs.Histogram
	routed, fellThrough        *obs.Counter
	tlvSweeps                  *obs.Counter
	cacheHits, cacheMisses     *obs.Counter
	notModified                *obs.Counter
}

// NewProxy builds the proxy and starts its health loop (unless
// disabled). Close stops the loop.
func NewProxy(opts Options) (*Proxy, error) {
	if opts.Writer == "" {
		return nil, fmt.Errorf("cluster: proxy needs a writer URL")
	}
	p := &Proxy{
		writer:  newMember(strings.TrimRight(opts.Writer, "/")),
		client:  opts.Client,
		maxGrid: opts.MaxGridScenarios,
		start:   time.Now(), //sweepvet:allow(timenow) proxy start time for /statsz uptime; never in record bytes
		stop:    make(chan struct{}),
	}
	p.writer.healthy.Store(true)
	if p.client == nil {
		p.client = defaultClient()
		p.ownsClient = true
	}
	p.hop = p.client.Transport
	if p.hop == nil {
		p.hop = http.DefaultTransport
	}
	p.width = fanOutWidth(p.hop)
	if p.maxGrid <= 0 {
		p.maxGrid = httpapi.DefaultMaxGridScenarios
	}
	if len(opts.Replicas) > 0 {
		urls := make([]string, len(opts.Replicas))
		for i, u := range opts.Replicas {
			urls[i] = strings.TrimRight(u, "/")
		}
		ring, err := NewRing(urls, opts.Vnodes)
		if err != nil {
			return nil, err
		}
		p.ring = ring
		for _, u := range ring.members {
			if u == p.writer.url {
				return nil, fmt.Errorf("cluster: writer %s cannot also be a replica", u)
			}
			m := newMember(u)
			// Optimistic start: the proxy serves before the first probe
			// completes; a dead replica costs one failed forward, which
			// ejects it inline.
			m.healthy.Store(true)
			p.replicas = append(p.replicas, m)
		}
	}
	entries := opts.CacheEntries
	if entries == 0 {
		entries = DefaultCacheEntries
	}
	if entries > 0 {
		p.cache = newResponseCache(entries)
	}
	// Metrics and tracing wire up once the member set and cache exist:
	// per-member gauges bind to the fixed member objects.
	p.initObs(opts.Tracer)

	p.mux = http.NewServeMux()
	p.mux.HandleFunc("/v1/scenario", httpapi.Instrument(p.scenarioH, p.tracer, "scenario", p.handleScenario))
	p.mux.HandleFunc("/v1/sweep", httpapi.Instrument(p.sweepH, p.tracer, "sweep", p.handleSweep))
	p.mux.HandleFunc("/v1/deltas", httpapi.Instrument(p.deltasH, p.tracer, "deltas", p.handlePassthrough))
	p.mux.HandleFunc("/healthz", p.handleHealthz)
	p.mux.HandleFunc("/statsz", p.handleStatsz)
	p.mux.Handle("/metricsz", p.reg.Handler())
	p.hs = &http.Server{Handler: p.mux}

	p.interval = opts.HealthInterval
	if p.interval == 0 {
		p.interval = DefaultHealthInterval
	}
	if p.interval > 0 && len(p.replicas) > 0 {
		p.healthWG.Add(1)
		go p.healthLoop()
	}
	return p, nil
}

// defaultClient is the client a proxy without Options.Client uses:
// http.DefaultTransport's settings, keeping DefaultIdleConnsPerHost
// idle connections per backend instead of two.
func defaultClient() *http.Client {
	tr := http.DefaultTransport.(*http.Transport).Clone()
	tr.MaxIdleConnsPerHost = DefaultIdleConnsPerHost
	return &http.Client{Transport: tr}
}

// fanOutWidth is how many idle connections rt keeps per host, and so how
// many of a sweep's cells run at once: even if they all go to one
// member, a warm fan-out reuses kept-alive connections instead of
// dialing past the pool and dropping the surplus. A RoundTripper that is not an
// *http.Transport counts as net/http's default pool.
func fanOutWidth(rt http.RoundTripper) int {
	n := http.DefaultMaxIdleConnsPerHost
	if tr, ok := rt.(*http.Transport); ok && tr.MaxIdleConnsPerHost != 0 {
		n = tr.MaxIdleConnsPerHost
	}
	return max(n, 1)
}

// ServeHTTP serves the proxy's routes.
func (p *Proxy) ServeHTTP(w http.ResponseWriter, r *http.Request) { p.mux.ServeHTTP(w, r) }

// ListenAndServe serves on addr until Shutdown or a listener error.
func (p *Proxy) ListenAndServe(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	return p.Serve(ln)
}

// Serve serves on ln until Shutdown or a listener error.
func (p *Proxy) Serve(ln net.Listener) error { return httpapi.Serve(p.hs, ln) }

// Shutdown drains in-flight requests up to ctx and stops the health
// loop.
func (p *Proxy) Shutdown(ctx context.Context) error {
	err := p.hs.Shutdown(ctx)
	p.Close()
	return err
}

// Close stops the health loop and, when the proxy built its own client,
// closes that client's idle backend connections; idempotent.
func (p *Proxy) Close() {
	p.stopOnce.Do(func() { close(p.stop) })
	p.healthWG.Wait()
	if p.ownsClient {
		p.client.CloseIdleConnections()
	}
}

func (p *Proxy) healthLoop() {
	defer p.healthWG.Done()
	t := time.NewTicker(p.interval)
	defer t.Stop()
	for {
		select {
		case <-p.stop:
			return
		case <-t.C:
			p.CheckHealth(context.Background())
		}
	}
}

// CheckHealth probes every replica's /healthz once and applies
// eject/readmit transitions. The health loop calls it on a ticker;
// tests call it directly.
func (p *Proxy) CheckHealth(ctx context.Context) {
	timeout := p.interval
	if timeout <= 0 || timeout > 2*time.Second {
		timeout = 2 * time.Second
	}
	var wg sync.WaitGroup
	for _, m := range p.replicas {
		wg.Add(1)
		go func(m *member) {
			defer wg.Done()
			cctx, cancel := context.WithTimeout(ctx, timeout)
			defer cancel()
			req, err := http.NewRequestWithContext(cctx, http.MethodGet, m.url+"/healthz", nil)
			if err != nil {
				m.recordProbe(false)
				return
			}
			resp, err := p.client.Do(req)
			if err != nil {
				m.recordProbe(false)
				return
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			m.recordProbe(resp.StatusCode == http.StatusOK)
		}(m)
	}
	wg.Wait()
}

// backendError relays a backend's deliberate non-200 answer (a 400
// config rejection, or the writer's own 429) to the proxy's client
// with status and body intact.
type backendError struct {
	status     int
	body       []byte
	retryAfter string
}

func (e *backendError) Error() string {
	return fmt.Sprintf("backend status %d: %s", e.status, bytes.TrimSpace(e.body))
}

// candidates appends to dst the members to try for a scenario ID, in
// order: the shard's ring owner and its successors (healthy, not
// backing off), then always the writer. Routing keys on the shard
// prefix — the same 256-way split the store shards and ships segments
// by — so one shard's scenarios heat one replica's cache. With room in
// dst it allocates nothing.
func (p *Proxy) candidates(dst []*member, id string) []*member {
	if p.ring != nil {
		now := time.Now() //sweepvet:allow(timenow) health-check backoff clock
		for _, i := range p.ring.shards[shardIndex(id)] {
			if m := p.replicas[i]; m.healthy.Load() && !m.backingOff(now) {
				dst = append(dst, m)
			}
		}
	}
	return append(dst, p.writer)
}

// shardIndex is the byte that store.ShardOf(id)'s two lowercase hex
// digits encode: id's index into Ring.shards.
func shardIndex(id string) int {
	s := store.ShardOf(id)
	return strings.IndexByte(hexDigits, s[0])<<4 | strings.IndexByte(hexDigits, s[1])
}

// forward posts one scenario request to one member, asking for the
// record in enc, and classifies the outcome: (record, nil) on success;
// errRetryMember when another member should be tried; *backendError
// when the answer is final and must be relayed.
var errRetryMember = errors.New("cluster: try next member")

func (p *Proxy) forward(ctx context.Context, m *member, body []byte, enc sweep.Encoding) ([]byte, error) {
	m.requests.Add(1)
	// The client's Timeout bounds the hop alone: a hop that times out
	// is the member's failure, while ctx ending is the caller's.
	hopCtx := ctx
	if p.client.Timeout > 0 {
		var cancel context.CancelFunc
		hopCtx, cancel = context.WithTimeout(ctx, p.client.Timeout)
		defer cancel()
	}
	req, err := http.NewRequestWithContext(hopCtx, http.MethodPost, m.scenarioURL, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	httpapi.SetMediaType(req.Header, "Content-Type", sweep.EncodingJSON)
	if enc == sweep.EncodingTLV {
		httpapi.SetMediaType(req.Header, "Accept", enc)
	}
	propagate(req)
	resp, err := p.hop.RoundTrip(req)
	if err != nil {
		if ctx.Err() != nil {
			// The caller gave up (client gone, or a sweep cancelling its
			// other cells): not the member's fault.
			return nil, ctx.Err()
		}
		// Transport failure: eject inline — the health loop readmits
		// when the member answers probes again.
		m.errs.Add(1)
		if m != p.writer {
			m.setHealth(false)
		}
		return nil, fmt.Errorf("%w: %s: %v", errRetryMember, m.url, err)
	}
	defer resp.Body.Close()
	data, err := readBody(resp.Body)
	if err != nil {
		if ctx.Err() != nil {
			return nil, ctx.Err()
		}
		m.errs.Add(1)
		if m != p.writer {
			m.setHealth(false)
		}
		return nil, fmt.Errorf("%w: %s: %v", errRetryMember, m.url, err)
	}
	switch {
	case resp.StatusCode == http.StatusOK:
		if enc == sweep.EncodingTLV {
			if err := wholeFrame(resp.Header.Get("Content-Type"), data); err != nil {
				// A sweepd older than TLV /v1/scenario answers JSON, which
				// must not reach a TLV stream; try the next member. The
				// member stays in the ring: it answers JSON asks right.
				m.errs.Add(1)
				return nil, fmt.Errorf("%w: %s: %v", errRetryMember, m.url, err)
			}
		}
		return data, nil
	case resp.StatusCode == http.StatusTooManyRequests:
		// Honor the Retry-After the serve layer attached: back this
		// member off and let the caller try the next ring member (a
		// replica shedding a miss is the DESIGN — the writer simulates).
		m.shed.Add(1)
		if sec, err := strconv.Atoi(resp.Header.Get("Retry-After")); err == nil && sec > 0 {
			//sweepvet:allow(timenow) Retry-After backoff clock
			m.backoffUntil.Store(time.Now().Add(time.Duration(sec) * time.Second).UnixNano())
		}
		if m == p.writer {
			return nil, &backendError{status: resp.StatusCode, body: data, retryAfter: resp.Header.Get("Retry-After")}
		}
		return nil, fmt.Errorf("%w: %s shed", errRetryMember, m.url)
	case resp.StatusCode >= 500:
		m.errs.Add(1)
		if m != p.writer {
			m.setHealth(false)
		}
		return nil, fmt.Errorf("%w: %s status %d", errRetryMember, m.url, resp.StatusCode)
	default:
		// 4xx: a deterministic rejection (bad axes) every member would
		// repeat — final.
		return nil, &backendError{status: resp.StatusCode, body: data}
	}
}

// readBufs recycles the buffers backend answers are read into.
var readBufs = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// readBody reads a backend answer and returns it in an allocation of
// its own size: the bytes may stay in the response cache, and reading
// into a recycled buffer spares the growth steps of reading a few-KB
// record from scratch.
func readBody(r io.Reader) ([]byte, error) {
	buf := readBufs.Get().(*bytes.Buffer)
	defer func() {
		buf.Reset()
		readBufs.Put(buf)
	}()
	if _, err := buf.ReadFrom(r); err != nil {
		return nil, err
	}
	return bytes.Clone(buf.Bytes()), nil
}

// wholeFrame checks a 200 answer to a TLV ask: the TLV media type, and
// a body that is exactly one frame whose CRC checks out.
func wholeFrame(contentType string, body []byte) error {
	if mt, _, _ := strings.Cut(contentType, ";"); !strings.EqualFold(strings.TrimSpace(mt), tlv.MediaType) {
		return fmt.Errorf("answered %q to a %s ask", contentType, tlv.MediaType)
	}
	_, n, err := tlv.ParseFrame(body)
	if err != nil {
		return err
	}
	if n != len(body) {
		return fmt.Errorf("%d bytes after the record frame", len(body)-n)
	}
	return nil
}

// resolve returns one scenario's record in enc: proxy cache, then the
// ring members in preference order, then the writer. from is the
// member that answered, nil when the response cache did.
func (p *Proxy) resolve(ctx context.Context, id string, body []byte, enc sweep.Encoding) (rec []byte, from *member, err error) {
	if p.cache != nil {
		if rec, ok := p.cache.get(id, enc); ok {
			p.cacheHits.Add(1)
			return rec, nil, nil
		}
		p.cacheMisses.Add(1)
	}
	var lastErr error
	var buf [8]*member
	for _, m := range p.candidates(buf[:0], id) {
		rec, err := p.forward(ctx, m, body, enc)
		if err == nil {
			if p.cache != nil {
				p.cache.put(id, enc, rec)
			}
			return rec, m, nil
		}
		var be *backendError
		if errors.As(err, &be) {
			return nil, m, be
		}
		if ctx.Err() != nil {
			return nil, nil, err
		}
		lastErr = err
	}
	return nil, nil, lastErr
}

// relayError writes a resolve failure to the client: backend answers
// keep their status and body, transport dead-ends become 502.
func relayError(w http.ResponseWriter, err error) {
	var be *backendError
	if errors.As(err, &be) {
		if be.retryAfter != "" {
			w.Header().Set("Retry-After", be.retryAfter)
		}
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(be.status)
		w.Write(be.body)
		return
	}
	httpapi.Error(w, http.StatusBadGateway, err.Error())
}

// handleScenario routes one scenario request. The proxy resolves the
// axes itself — the scenario ID is both the routing key and the ETag's
// root, so a conditional request for a cached id never touches a
// backend. The client's encoding negotiation passes through: the
// backend is asked for the same encoding, and its bytes are relayed
// unchanged.
func (p *Proxy) handleScenario(w http.ResponseWriter, r *http.Request) {
	if !httpapi.RequireMethod(w, r, http.MethodPost) {
		return
	}
	q, ok := p.scenarios.Parse(w, r)
	if !ok {
		return
	}
	id := q.Scenario.ID
	enc := httpapi.Negotiate(r)
	inm := r.Header.Get("If-None-Match")
	if httpapi.ETagMatch(inm, q.ETag(enc)) && p.cache != nil && p.cache.contains(id) {
		p.notModified.Add(1)
		p.cacheHits.Add(1)
		httpapi.ScenarioHeaders(w.Header(), q, enc, "X-Sweepd-Proxy-Cache", true)
		w.WriteHeader(http.StatusNotModified)
		return
	}
	// Forward the axes encoded again rather than the raw body: backends
	// decode strictly, and this guarantees the forwarded body is the
	// same bytes for every equivalent phrasing of one scenario.
	body, err := q.AxesJSON()
	if err != nil {
		httpapi.Error(w, http.StatusInternalServerError, err.Error())
		return
	}
	rec, from, err := p.resolve(r.Context(), id, body, enc)
	if err != nil {
		relayError(w, err)
		return
	}
	h := w.Header()
	switch from {
	case nil:
		// Already counted as a response-cache hit inside resolve.
		h["X-Sweepd-Route"] = cacheRoute
	case p.writer:
		p.fellThrough.Inc()
		h["X-Sweepd-Route"] = from.route
	default:
		p.routed.Inc()
		h["X-Sweepd-Route"] = from.route
	}
	httpapi.ScenarioHeaders(h, q, enc, "X-Sweepd-Proxy-Cache", from == nil)
	if httpapi.ETagMatch(inm, q.ETag(enc)) {
		// The client's copy is current (the id is a content hash); the
		// resolve run confirmed the record exists cluster-wide.
		p.notModified.Add(1)
		w.WriteHeader(http.StatusNotModified)
		return
	}
	httpapi.WriteScenario(w, enc, rec)
}

// cacheRoute is the X-Sweepd-Route value of an answer from the
// proxy's response cache, shared like httpapi's header values.
var cacheRoute = []string{"cache"}

// handleSweep fans a grid out scenario by scenario across the ring and
// merges the responses back in grid order — byte-identical to the same
// sweep against a single sweepd, because each backend answer IS one
// record of that stream. p.width workers take the cells in grid order,
// so no member ever has more of the sweep's requests in flight than the
// client keeps connections to it. Workers run ahead while earlier
// records flush, the same pipelining discipline as the sweep engine's
// RunEach. Backends are asked for the encoding the client negotiated,
// so a JSON line or a TLV frame is spliced into the stream as it
// arrived; TLV frames ride the stream's batches.
func (p *Proxy) handleSweep(w http.ResponseWriter, r *http.Request) {
	if !httpapi.RequireMethod(w, r, http.MethodPost) {
		return
	}
	g, ok := httpapi.ParseGrid(w, r, p.maxGrid)
	if !ok {
		return
	}
	scs, err := g.Scenarios()
	if err != nil {
		httpapi.Error(w, http.StatusBadRequest, err.Error())
		return
	}

	// The first failure cancels every other cell's backend request, and
	// the workers are joined before the handler answers, so no backend
	// request outlives the response.
	ctx, cancel := context.WithCancel(r.Context())
	defer cancel()
	var (
		failOnce sync.Once
		failErr  error
	)
	fail := func(err error) {
		failOnce.Do(func() {
			failErr = err
			cancel()
		})
	}
	type cell struct {
		rec  []byte
		err  error
		done chan struct{}
	}
	st := httpapi.NewStream(w, r, nil)
	enc := st.Encoding()
	cells := make([]cell, len(scs))
	for i := range cells {
		cells[i].done = make(chan struct{})
	}
	idx := make(chan int, len(scs))
	for i := range scs {
		idx <- i
	}
	close(idx)
	workers := min(p.width, len(scs))
	var wg sync.WaitGroup
	wg.Add(workers)
	for wk := 0; wk < workers; wk++ {
		go func() {
			defer wg.Done()
			for i := range idx {
				err := ctx.Err()
				if err == nil {
					var body []byte
					if body, err = json.Marshal(sweep.AxesOf(scs[i].Config)); err == nil {
						cells[i].rec, _, err = p.resolve(ctx, scs[i].ID, body, enc)
					}
					if err != nil {
						fail(err)
					}
				}
				cells[i].err = err
				close(cells[i].done)
			}
		}()
	}

	for i := 0; i < len(cells) && err == nil; i++ {
		<-cells[i].done
		if err = cells[i].err; err == nil {
			err = st.WriteEncoded(cells[i].rec)
		}
	}
	if err == nil {
		err = st.Flush()
	}
	if err != nil {
		fail(err)
	}
	wg.Wait()
	if err != nil {
		// Relay the first failure, not a cancellation it caused in the
		// cell the stream was waiting on.
		st.AbortIfStarted()
		relayError(w, failErr)
		return
	}
	if enc == sweep.EncodingTLV {
		p.tlvSweeps.Add(1)
	}
}

// handlePassthrough forwards a request verbatim to the writer —
// /v1/deltas needs the whole grid in one process, so it is not fanned
// out. The method guard and body bound answer locally, exactly as the
// writer would, without a round trip.
func (p *Proxy) handlePassthrough(w http.ResponseWriter, r *http.Request) {
	if !httpapi.RequireMethod(w, r, http.MethodPost) {
		return
	}
	body, ok := httpapi.ReadBody(w, r)
	if !ok {
		return
	}
	req, err := http.NewRequestWithContext(r.Context(), http.MethodPost, p.writer.url+r.URL.Path, bytes.NewReader(body))
	if err != nil {
		httpapi.Error(w, http.StatusInternalServerError, err.Error())
		return
	}
	req.Header.Set("Content-Type", r.Header.Get("Content-Type"))
	propagate(req)
	p.writer.requests.Add(1)
	resp, err := p.client.Do(req)
	if err != nil {
		p.writer.errs.Add(1)
		httpapi.Error(w, http.StatusBadGateway, err.Error())
		return
	}
	defer resp.Body.Close()
	for _, h := range []string{"Content-Type", "Retry-After", "ETag"} {
		if v := resp.Header.Get(h); v != "" {
			w.Header().Set(h, v)
		}
	}
	w.WriteHeader(resp.StatusCode)
	io.Copy(w, resp.Body)
}

// MemberStats is one backend's health and traffic snapshot. The probe
// detail postdates the flat counters and rides behind omitempty
// (pinned by the jsontags baseline), so snapshots of an unprobed
// member marshal exactly the bytes they always did.
type MemberStats struct {
	URL        string `json:"url"`
	Healthy    bool   `json:"healthy"`
	BackingOff bool   `json:"backing_off"`
	Requests   int64  `json:"requests"`
	Errors     int64  `json:"errors"`
	Shed       int64  `json:"shed"`
	Ejects     int64  `json:"ejects"`
	Readmits   int64  `json:"readmits"`
	// LastProbeOK / LastProbeUnixMs describe the most recent health
	// probe; zero values mean the member has not been probed yet (the
	// writer never is — it is always routed to).
	LastProbeOK     bool  `json:"last_probe_ok,omitempty"`
	LastProbeUnixMs int64 `json:"last_probe_unix_ms,omitempty"`
	// ConsecutiveFailures counts failed probes since the last success.
	ConsecutiveFailures int64 `json:"consecutive_failures,omitempty"`
	// BackoffUntilUnixMs is the end of the member's Retry-After
	// sit-out, when one is active.
	BackoffUntilUnixMs int64 `json:"backoff_until_unix_ms,omitempty"`
}

// ProxyStats is the proxy's /statsz payload.
type ProxyStats struct {
	UptimeS  float64 `json:"uptime_s"`
	Version  string  `json:"version"`
	Scenario struct {
		Requests int64 `json:"requests"`
		// Routed counts requests answered by a ring replica;
		// Fallthrough counts those the writer had to answer because
		// the owning replica was down or stale. Both postdate Requests
		// and ride behind omitempty.
		Routed      int64 `json:"routed,omitempty"`
		Fallthrough int64 `json:"fallthrough,omitempty"`
	} `json:"scenario"`
	Sweep struct {
		Requests int64 `json:"requests"`
		// TLVStreams counts sweeps that negotiated the binary framing.
		TLVStreams int64 `json:"tlv_streams"`
	} `json:"sweep"`
	Cache struct {
		Entries     int   `json:"entries"`
		Hits        int64 `json:"hits"`
		Misses      int64 `json:"misses"`
		NotModified int64 `json:"not_modified"`
	} `json:"cache"`
	Writer   MemberStats   `json:"writer"`
	Replicas []MemberStats `json:"replicas"`
}

func memberStats(m *member) MemberStats {
	now := time.Now() //sweepvet:allow(timenow) backoff state for /statsz
	ms := MemberStats{
		URL:                 m.url,
		Healthy:             m.healthy.Load(),
		BackingOff:          m.backingOff(now),
		Requests:            m.requests.Load(),
		Errors:              m.errs.Load(),
		Shed:                m.shed.Load(),
		Ejects:              m.ejects.Load(),
		Readmits:            m.readmits.Load(),
		LastProbeOK:         m.lastProbeOK.Load(),
		ConsecutiveFailures: m.consecFails.Load(),
	}
	if ns := m.lastProbeNano.Load(); ns > 0 {
		ms.LastProbeUnixMs = ns / int64(time.Millisecond)
	}
	if until := m.backoffUntil.Load(); until > now.UnixNano() {
		ms.BackoffUntilUnixMs = until / int64(time.Millisecond)
	}
	return ms
}

func (p *Proxy) handleStatsz(w http.ResponseWriter, r *http.Request) {
	var st ProxyStats
	st.UptimeS = time.Since(p.start).Seconds() //sweepvet:allow(timenow) /statsz uptime
	st.Version = buildinfo.Version()
	st.Scenario.Requests = p.scenarioH.Count()
	st.Scenario.Routed = p.routed.Value()
	st.Scenario.Fallthrough = p.fellThrough.Value()
	st.Sweep.Requests = p.sweepH.Count()
	st.Sweep.TLVStreams = p.tlvSweeps.Value()
	if p.cache != nil {
		st.Cache.Entries = p.cache.len()
	}
	st.Cache.Hits = p.cacheHits.Value()
	st.Cache.Misses = p.cacheMisses.Value()
	st.Cache.NotModified = p.notModified.Value()
	st.Writer = memberStats(p.writer)
	st.Replicas = make([]MemberStats, 0, len(p.replicas))
	for _, m := range p.replicas {
		st.Replicas = append(st.Replicas, memberStats(m))
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(st)
}

func (p *Proxy) handleHealthz(w http.ResponseWriter, r *http.Request) {
	healthy := 0
	for _, m := range p.replicas {
		if m.healthy.Load() {
			healthy++
		}
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(map[string]any{
		"status":           "ok",
		"uptime_s":         time.Since(p.start).Seconds(), //sweepvet:allow(timenow) /statsz uptime
		"writer":           p.writer.url,
		"replicas":         len(p.replicas),
		"replicas_healthy": healthy,
	})
}
