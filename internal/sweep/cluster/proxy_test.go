package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/campaign"
	"repro/internal/obs"
	"repro/internal/sweep"
	"repro/internal/sweep/httpapi"
	"repro/internal/sweep/serve"
	"repro/internal/sweep/store"
	"repro/internal/sweep/tlv"
)

// flakyHandler wraps a backend so tests can take it down (every request
// answers 500, including /healthz) without tearing the listener down,
// make it answer /v1/scenario as a sweepd from before TLV negotiation
// did (JSON, whatever the Accept header asks), or hold its
// /v1/scenario requests at a rendezvous.
type flakyHandler struct {
	h      http.Handler
	down   atomic.Bool
	preTLV atomic.Bool
	meet   atomic.Pointer[rendezvous]
}

func (f *flakyHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if f.down.Load() {
		http.Error(w, "induced outage", http.StatusInternalServerError)
		return
	}
	if r.URL.Path == "/v1/scenario" {
		if f.preTLV.Load() {
			r.Header.Del("Accept")
		}
		if m := f.meet.Load(); m != nil {
			m.wait()
		}
	}
	f.h.ServeHTTP(w, r)
}

// rendezvous holds each arriving request until n have arrived, or
// until a second has passed.
type rendezvous struct {
	n       int64
	arrived atomic.Int64
	all     chan struct{}
}

func newRendezvous(n int) *rendezvous {
	return &rendezvous{n: int64(n), all: make(chan struct{})}
}

func (r *rendezvous) wait() {
	if r.arrived.Add(1) == r.n {
		close(r.all)
	}
	select {
	case <-r.all:
	case <-time.After(time.Second):
	}
}

// testCluster is one writer plus n store-only read replicas, each with
// a replicator following the writer's segment feed.
type testCluster struct {
	writer     *serve.Server
	writerTS   *httptest.Server
	writerSims *atomic.Int64
	// dials and hangups count the TCP connections every backend has
	// accepted and closed.
	dials, hangups atomic.Int64

	replicas  []*serve.Server
	replicaTS []*httptest.Server
	flaky     []*flakyHandler
	reps      []*Replicator
}

func newTestCluster(t *testing.T, nReplicas int) *testCluster {
	t.Helper()
	c := &testCluster{writerSims: &atomic.Int64{}}
	w, err := serve.New(serve.Options{
		CacheDir:   t.TempDir(),
		SimWorkers: 4,
		Runner: func(cfg campaign.Config) (*campaign.Result, error) {
			c.writerSims.Add(1)
			return campaign.Run(cfg)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	c.writer = w
	c.writerTS = c.startBackend(w.Handler())
	t.Cleanup(func() { c.writerTS.Close(); w.Close() })

	for i := 0; i < nReplicas; i++ {
		r, err := serve.New(serve.Options{CacheDir: t.TempDir(), QueueDepth: -1})
		if err != nil {
			t.Fatal(err)
		}
		fh := &flakyHandler{h: r.Handler()}
		ts := c.startBackend(fh)
		t.Cleanup(func() { ts.Close(); r.Close() })
		rep, err := NewReplicator(ReplicatorOptions{Writer: c.writerTS.URL, Store: r.Store()})
		if err != nil {
			t.Fatal(err)
		}
		c.replicas = append(c.replicas, r)
		c.replicaTS = append(c.replicaTS, ts)
		c.flaky = append(c.flaky, fh)
		c.reps = append(c.reps, rep)
	}
	return c
}

// startBackend serves h, counting its connections in c.dials and
// c.hangups.
func (c *testCluster) startBackend(h http.Handler) *httptest.Server {
	ts := httptest.NewUnstartedServer(h)
	ts.Config.ConnState = func(_ net.Conn, s http.ConnState) {
		switch s {
		case http.StateNew:
			c.dials.Add(1)
		case http.StateClosed, http.StateHijacked:
			c.hangups.Add(1)
		}
	}
	ts.Start()
	return ts
}

func (c *testCluster) replicaURLs() []string {
	urls := make([]string, len(c.replicaTS))
	for i, ts := range c.replicaTS {
		urls[i] = ts.URL
	}
	return urls
}

// sync pulls every replica up to the writer's current generation.
func (c *testCluster) sync(t *testing.T) {
	t.Helper()
	for i, rep := range c.reps {
		if err := rep.SyncOnce(context.Background()); err != nil {
			t.Fatalf("replica %d sync: %v", i, err)
		}
	}
}

func (c *testCluster) newProxy(t *testing.T, opts Options) (*Proxy, *httptest.Server) {
	t.Helper()
	opts.Writer = c.writerTS.URL
	if opts.Replicas == nil {
		opts.Replicas = c.replicaURLs()
	}
	if opts.HealthInterval == 0 {
		opts.HealthInterval = -1 // tests drive CheckHealth directly
	}
	p, err := NewProxy(opts)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(p.Handler())
	t.Cleanup(func() { ts.Close(); p.Close() })
	return p, ts
}

func postScenario(t *testing.T, url string, seed uint64, hdr map[string]string) *http.Response {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, url+"/v1/scenario",
		strings.NewReader(fmt.Sprintf(`{"seed":%d}`, seed)))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func proxyStats(t *testing.T, url string) ProxyStats {
	t.Helper()
	resp, err := http.Get(url + "/statsz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st ProxyStats
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return st
}

// TestProxyRoutesWarmScenariosToReplicas: once records replicate, the
// proxy serves them from ring replicas — the writer runs zero
// replica-era simulations — and a repeat answers from the proxy's own
// response cache without touching any backend.
func TestProxyRoutesWarmScenariosToReplicas(t *testing.T) {
	c := newTestCluster(t, 2)
	seeds := []uint64{301, 302, 303}
	var bodies [][]byte
	for _, s := range seeds {
		resp := postScenario(t, c.writerTS.URL, s, nil)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("warming seed %d: status %d", s, resp.StatusCode)
		}
		b, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		bodies = append(bodies, b)
	}
	c.sync(t)
	simsBefore := c.writerSims.Load()

	_, pts := c.newProxy(t, Options{})
	for i, s := range seeds {
		resp := postScenario(t, pts.URL, s, nil)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("seed %d through proxy: status %d", s, resp.StatusCode)
		}
		got, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if !bytes.Equal(got, bodies[i]) {
			t.Fatalf("seed %d: proxy served different bytes than the writer", s)
		}
		route := resp.Header.Get("X-Sweepd-Route")
		if route == c.writerTS.URL || route == "" || route == "cache" {
			t.Fatalf("seed %d routed to %q, want a replica", s, route)
		}
		if resp.Header.Get("ETag") == "" {
			t.Fatalf("seed %d: proxy response missing ETag", s)
		}
	}
	if got := c.writerSims.Load(); got != simsBefore {
		t.Fatalf("replica-era requests triggered %d writer simulations", got-simsBefore)
	}

	// Repeat: all three now come from the proxy's response cache.
	for i, s := range seeds {
		resp := postScenario(t, pts.URL, s, nil)
		got, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if !bytes.Equal(got, bodies[i]) {
			t.Fatalf("seed %d: cached bytes differ", s)
		}
		if route := resp.Header.Get("X-Sweepd-Route"); route != "cache" {
			t.Fatalf("seed %d: route %q, want cache", s, route)
		}
	}
	st := proxyStats(t, pts.URL)
	if st.Cache.Hits != int64(len(seeds)) || st.Cache.Misses != int64(len(seeds)) {
		t.Fatalf("cache counters hits=%d misses=%d, want %d/%d",
			st.Cache.Hits, st.Cache.Misses, len(seeds), len(seeds))
	}
	if st.Version == "" || st.UptimeS <= 0 {
		t.Fatalf("statsz missing identity: %+v", st)
	}
}

// TestProxyConditionalRequests: a warm id answers 304 with an empty
// body straight from the proxy cache; a cold id with a matching tag
// still resolves cluster-wide before conceding the 304.
func TestProxyConditionalRequests(t *testing.T) {
	c := newTestCluster(t, 1)
	_, pts := c.newProxy(t, Options{})

	resp := postScenario(t, pts.URL, 311, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("cold request: status %d", resp.StatusCode)
	}
	etag := resp.Header.Get("ETag")
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if etag == "" {
		t.Fatal("no ETag on proxy response")
	}

	r304 := postScenario(t, pts.URL, 311, map[string]string{"If-None-Match": etag})
	b, _ := io.ReadAll(r304.Body)
	r304.Body.Close()
	if r304.StatusCode != http.StatusNotModified || len(b) != 0 {
		t.Fatalf("warm conditional: status %d body %d bytes, want 304 empty", r304.StatusCode, len(b))
	}
	if r304.Header.Get("X-Sweepd-Proxy-Cache") != "hit" {
		t.Fatal("warm conditional did not come from the proxy cache")
	}

	st := proxyStats(t, pts.URL)
	if st.Cache.NotModified != 1 {
		t.Fatalf("not_modified=%d, want 1", st.Cache.NotModified)
	}

	// Stale tag on a warm id: full body.
	rFull := postScenario(t, pts.URL, 311, map[string]string{"If-None-Match": `"stale"`})
	b, _ = io.ReadAll(rFull.Body)
	rFull.Body.Close()
	if rFull.StatusCode != http.StatusOK || len(b) == 0 {
		t.Fatalf("stale conditional: status %d body %d bytes", rFull.StatusCode, len(b))
	}
}

// TestProxyMissFallsThroughAndHonorsRetryAfter: an unreplicated
// scenario sheds off the store-only replica and lands on the writer;
// the shed replica is then backed off for its advertised Retry-After,
// so an immediate second miss skips it entirely.
func TestProxyMissFallsThroughAndHonorsRetryAfter(t *testing.T) {
	c := newTestCluster(t, 1)
	_, pts := c.newProxy(t, Options{CacheEntries: -1}) // no response cache: every request routes

	resp := postScenario(t, pts.URL, 321, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("miss through proxy: status %d", resp.StatusCode)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if route := resp.Header.Get("X-Sweepd-Route"); route != c.writerTS.URL {
		t.Fatalf("miss routed to %q, want the writer %q", route, c.writerTS.URL)
	}
	st := proxyStats(t, pts.URL)
	if len(st.Replicas) != 1 || st.Replicas[0].Shed != 1 || st.Replicas[0].Requests != 1 {
		t.Fatalf("replica counters after one miss: %+v", st.Replicas)
	}
	if !st.Replicas[0].BackingOff {
		t.Fatal("shed replica is not backing off despite Retry-After")
	}

	// Second miss, same shard (same scenario, cache disabled): the
	// replica must not see the request while backing off.
	resp = postScenario(t, pts.URL, 321, nil)
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("second miss: status %d", resp.StatusCode)
	}
	st = proxyStats(t, pts.URL)
	if st.Replicas[0].Requests != 1 {
		t.Fatalf("backed-off replica saw %d requests, want still 1", st.Replicas[0].Requests)
	}
}

// TestProxyHopHonorsClientTimeout: scenario hops skip http.Client.Do
// but still end at the client's Timeout. A replica that never answers
// costs one timed-out hop, counted against it, and the writer answers.
func TestProxyHopHonorsClientTimeout(t *testing.T) {
	c := newTestCluster(t, 0)
	release := make(chan struct{})
	stalled := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		select {
		case <-r.Context().Done():
		case <-release:
		}
	}))
	t.Cleanup(func() { close(release); stalled.Close() })
	_, pts := c.newProxy(t, Options{
		Replicas:     []string{stalled.URL},
		CacheEntries: -1,
		Client:       &http.Client{Timeout: 200 * time.Millisecond},
	})

	client := &http.Client{Timeout: 10 * time.Second} // a hop that ignored Timeout would end here
	resp, err := client.Post(pts.URL+"/v1/scenario", "application/json", strings.NewReader(`{"seed":1}`))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || resp.Header.Get("X-Sweepd-Route") != c.writerTS.URL {
		t.Fatalf("status %d via %q, want 200 via the writer %q",
			resp.StatusCode, resp.Header.Get("X-Sweepd-Route"), c.writerTS.URL)
	}
	st := proxyStats(t, pts.URL)
	if r := st.Replicas[0]; r.Requests != 1 || r.Errors != 1 || r.Healthy {
		t.Fatalf("stalled replica after a timed-out hop: %+v", r)
	}
}

// TestProxyHealthEjectReadmit: a replica that fails /healthz is
// ejected — requests route around it — and readmitted when it answers
// again, with both transitions counted.
func TestProxyHealthEjectReadmit(t *testing.T) {
	c := newTestCluster(t, 2)
	resp := postScenario(t, c.writerTS.URL, 331, nil)
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	c.sync(t)

	p, pts := c.newProxy(t, Options{CacheEntries: -1})
	c.flaky[0].down.Store(true)
	p.CheckHealth(context.Background())
	st := proxyStats(t, pts.URL)
	downURL := c.replicaTS[0].URL
	for _, m := range st.Replicas {
		if m.URL == downURL && (m.Healthy || m.Ejects != 1) {
			t.Fatalf("downed replica not ejected: %+v", m)
		}
		if m.URL != downURL && !m.Healthy {
			t.Fatalf("healthy replica ejected: %+v", m)
		}
		// Probe detail: every probed member reports its last outcome and
		// when it happened; the downed one shows the failure streak.
		if m.LastProbeUnixMs <= 0 {
			t.Fatalf("member %s has no probe timestamp: %+v", m.URL, m)
		}
		if m.URL == downURL && (m.LastProbeOK || m.ConsecutiveFailures != 1) {
			t.Fatalf("downed replica probe detail: %+v", m)
		}
		if m.URL != downURL && (!m.LastProbeOK || m.ConsecutiveFailures != 0) {
			t.Fatalf("healthy replica probe detail: %+v", m)
		}
	}

	// Requests still serve (other replica or writer), never the downed
	// member.
	for i := 0; i < 3; i++ {
		r := postScenario(t, pts.URL, 331, nil)
		io.Copy(io.Discard, r.Body)
		r.Body.Close()
		if r.StatusCode != http.StatusOK {
			t.Fatalf("request %d during outage: status %d", i, r.StatusCode)
		}
		if route := r.Header.Get("X-Sweepd-Route"); route == downURL {
			t.Fatalf("request %d routed to the ejected replica", i)
		}
	}

	c.flaky[0].down.Store(false)
	p.CheckHealth(context.Background())
	st = proxyStats(t, pts.URL)
	for _, m := range st.Replicas {
		if m.URL == downURL && (!m.Healthy || m.Readmits != 1) {
			t.Fatalf("recovered replica not readmitted: %+v", m)
		}
		if m.URL == downURL && (!m.LastProbeOK || m.ConsecutiveFailures != 0) {
			t.Fatalf("recovered replica probe detail not reset: %+v", m)
		}
	}
}

// TestProxySweepByteIdenticalAcrossFailure: a sweep through the proxy
// over two replicas is byte-identical to the engine's own JSONL export,
// cold (everything falls through to the writer) and with one replica
// down (failover mid-fan-out) alike.
func TestProxySweepByteIdenticalAcrossFailure(t *testing.T) {
	g := sweep.Grid{Seeds: []uint64{341, 342}, EdgeUPF: []bool{false, true}}
	res, err := sweep.Run(g, sweep.Options{Workers: 2, Cache: sweep.NewCache()})
	if err != nil {
		t.Fatal(err)
	}
	want, err := res.ExportJSONL()
	if err != nil {
		t.Fatal(err)
	}

	c := newTestCluster(t, 2)
	_, pts := c.newProxy(t, Options{})
	spec := `{"seeds":[341,342],"edge_upf":[false,true]}`

	sweepBytes := func() []byte {
		t.Helper()
		resp, err := http.Post(pts.URL+"/v1/sweep", "application/json", strings.NewReader(spec))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			b, _ := io.ReadAll(resp.Body)
			t.Fatalf("sweep status %d: %s", resp.StatusCode, b)
		}
		b, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}

	if got := sweepBytes(); !bytes.Equal(got, want) {
		t.Fatalf("cold proxy sweep differs from engine export (%d vs %d bytes)", len(got), len(want))
	}
	// Replicate, then knock one replica out: the fan-out must fail over
	// and still assemble the identical stream.
	c.sync(t)
	c.flaky[1].down.Store(true)
	if got := sweepBytes(); !bytes.Equal(got, want) {
		t.Fatalf("degraded proxy sweep differs from engine export")
	}
}

// countingTransport counts backend requests the proxy has in flight:
// from the start of RoundTrip until it fails or the body is closed. A
// failed request lingers a little before returning, like a slow
// connection teardown, so a handler that answers once the cell it waits
// on is done, without joining the rest, is caught with requests still
// in flight.
type countingTransport struct {
	base     http.RoundTripper
	inFlight atomic.Int64
}

func (c *countingTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	c.inFlight.Add(1)
	resp, err := c.base.RoundTrip(req)
	if err != nil {
		time.Sleep(50 * time.Millisecond)
		c.inFlight.Add(-1)
		return nil, err
	}
	resp.Body = &countedBody{ReadCloser: resp.Body, n: &c.inFlight}
	return resp, nil
}

type countedBody struct {
	io.ReadCloser
	n    *atomic.Int64
	once sync.Once
}

func (b *countedBody) Close() error {
	b.once.Do(func() { b.n.Add(-1) })
	return b.ReadCloser.Close()
}

// TestProxySweepFailureJoinsFanOut: when one cell fails, the proxy
// cancels the others and joins its workers before answering. Both
// backends reject the first cell's seed and hold every other request
// until its context ends, so the client gets the rejection only if the
// failure cancelled the rest — and no backend request may be left in
// flight. The wrapping transport hides its pool, so the fan-out runs
// two cells at a time: the rejection arrives while the second cell is
// held, whose cancelled request then lingers. The cancelled requests
// are the proxy's doing, so they must not eject the replica that was
// serving them.
func TestProxySweepFailureJoinsFanOut(t *testing.T) {
	const failSeed = 1
	var started atomic.Int64
	handler := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		var ax sweep.Axes
		if err := json.NewDecoder(r.Body).Decode(&ax); err != nil {
			httpapi.Error(w, http.StatusBadRequest, err.Error())
			return
		}
		started.Add(1)
		if ax.Seed == failSeed {
			httpapi.Error(w, http.StatusUnprocessableEntity, "induced rejection")
			return
		}
		<-r.Context().Done()
	})
	writer, replica := httptest.NewServer(handler), httptest.NewServer(handler)
	t.Cleanup(writer.Close)
	t.Cleanup(replica.Close)

	tr := &countingTransport{base: http.DefaultTransport}
	p, err := NewProxy(Options{
		Writer:         writer.URL,
		Replicas:       []string{replica.URL},
		HealthInterval: -1,
		Client:         &http.Client{Transport: tr},
	})
	if err != nil {
		t.Fatal(err)
	}
	if p.width != http.DefaultMaxIdleConnsPerHost {
		t.Fatalf("fan-out width %d behind a wrapping transport, want net/http's default pool of %d",
			p.width, http.DefaultMaxIdleConnsPerHost)
	}
	pts := httptest.NewServer(p.Handler())
	t.Cleanup(func() { pts.Close(); p.Close() })

	client := &http.Client{Timeout: 10 * time.Second}
	resp, err := client.Post(pts.URL+"/v1/sweep", "application/json",
		strings.NewReader(`{"seeds":[1,2,3,4,5,6,7,8]}`))
	if err != nil {
		t.Fatalf("sweep did not answer after its failed cell: %v", err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if n := tr.inFlight.Load(); n != 0 {
		t.Fatalf("%d backend requests still in flight after the error response", n)
	}
	if resp.StatusCode != http.StatusUnprocessableEntity || !strings.Contains(string(body), "induced rejection") {
		t.Fatalf("sweep answered %d %s, want the failed cell's 422", resp.StatusCode, body)
	}
	if n := started.Load(); n > int64(p.width) {
		t.Fatalf("backends saw %d requests, want at most the fan-out's first %d cells", n, p.width)
	}
	if m := proxyStats(t, pts.URL).Replicas[0]; !m.Healthy || m.Ejects != 0 {
		t.Fatalf("cancelled requests ejected the replica: %+v", m)
	}
}

// wrappedTransport hides its *http.Transport behind another
// RoundTripper, as an instrumenting client would.
type wrappedTransport struct{ base http.RoundTripper }

func (w wrappedTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	return w.base.RoundTrip(req)
}

// TestProxySweepReusesConnections: a sweep's fan-out is no wider than
// the client's connection pool per backend, so once every backend has
// opened as many connections as the fan-out can send it at once, warm
// streams only reuse them. It holds for the proxy's default client and
// for a wrapped one whose pool the proxy cannot see, which keeps
// net/http's default two per host. The warm-up asks every cell of the
// grid through /v1/scenario at once, held at a rendezvous, so each
// replica opens a connection for every cell it owns — at least as many
// as a stream can ever hold open to it.
func TestProxySweepReusesConnections(t *testing.T) {
	const spec = `{"seeds":[381,382,383,384],"edge_upf":[false,true],"mobile_nodes":[10,20]}`
	g := sweep.Grid{Seeds: []uint64{381, 382, 383, 384}, EdgeUPF: []bool{false, true}, MobileNodes: []int{10, 20}}
	scs, err := g.Scenarios()
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name   string
		client *http.Client
	}{
		{"default client", nil},
		{"wrapped transport", &http.Client{Transport: wrappedTransport{http.DefaultTransport.(*http.Transport).Clone()}}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := newTestCluster(t, 2)
			// Simulate and replicate the grid before the proxy exists, so
			// no replica sheds a miss and backs off.
			if code, _, b := postSweep(t, c.writerTS.URL, spec, true); code != http.StatusOK {
				t.Fatalf("cold sweep: status %d: %s", code, b)
			}
			c.sync(t)
			_, pts := c.newProxy(t, Options{CacheEntries: -1, Client: tc.client})

			meet := newRendezvous(len(scs))
			for _, f := range c.flaky {
				f.meet.Store(meet)
			}
			var wg sync.WaitGroup
			for _, sc := range scs {
				wg.Add(1)
				go func() {
					defer wg.Done()
					body, err := json.Marshal(sweep.AxesOf(sc.Config))
					if err != nil {
						t.Error(err)
						return
					}
					req, err := http.NewRequest(http.MethodPost, pts.URL+"/v1/scenario", bytes.NewReader(body))
					if err != nil {
						t.Error(err)
						return
					}
					req.Header.Set("Accept", tlv.MediaType)
					resp, err := http.DefaultClient.Do(req)
					if err != nil {
						t.Error(err)
						return
					}
					io.Copy(io.Discard, resp.Body)
					resp.Body.Close()
					if resp.StatusCode != http.StatusOK {
						t.Errorf("warm-up scenario %s: status %d", sc.ID, resp.StatusCode)
					}
				}()
			}
			wg.Wait()
			for _, f := range c.flaky {
				f.meet.Store(nil)
			}
			if n := meet.arrived.Load(); n != int64(len(scs)) {
				t.Fatalf("warm-up reached the replicas %d times, want once per cell (%d)", n, len(scs))
			}

			before := c.dials.Load()
			for i := 0; i < 20; i++ {
				if code, _, b := postSweep(t, pts.URL, spec, true); code != http.StatusOK {
					t.Fatalf("warm sweep %d: status %d: %s", i, code, b)
				}
			}
			if n := c.dials.Load() - before; n != 0 {
				t.Fatalf("20 warm 16-scenario streams opened %d new backend connections, want 0", n)
			}
		})
	}
}

// TestProxyCloseDropsOwnConnections: a proxy that built its own client
// closes that client's kept-alive backend connections on Close, rather
// than leaving them open until the idle timeout.
func TestProxyCloseDropsOwnConnections(t *testing.T) {
	c := newTestCluster(t, 1)
	p, pts := c.newProxy(t, Options{CacheEntries: -1})
	resp := postScenario(t, pts.URL, 395, nil)
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("scenario: status %d", resp.StatusCode)
	}
	if c.dials.Load() == 0 {
		t.Fatal("the proxy opened no backend connection")
	}
	p.Close()
	deadline := time.Now().Add(2 * time.Second)
	for c.hangups.Load() != c.dials.Load() {
		if time.Now().After(deadline) {
			t.Fatalf("%d of %d backend connections still open after Close", c.dials.Load()-c.hangups.Load(), c.dials.Load())
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// dialAs returns a transport that dials addrs[hostport] for a request
// addressed to hostport, so a replica keeps the name a test gave it
// whatever port its server listens on.
func dialAs(addrs map[string]string) *http.Transport {
	tr := http.DefaultTransport.(*http.Transport).Clone()
	var d net.Dialer
	tr.DialContext = func(ctx context.Context, network, addr string) (net.Conn, error) {
		if a, ok := addrs[addr]; ok {
			addr = a
		}
		return d.DialContext(ctx, network, addr)
	}
	return tr
}

// TestProxySpreadsWarmReadsOverReplicas: the ring splits the shards
// between two replicas, so 64 warm scenarios read through the proxy
// reach both, and each serves at least a quarter of them. The replicas
// carry the names CI's proxy smoke gives its own (loopback ports 8081
// and 8082), dialed through the test transport, so the split is fixed.
func TestProxySpreadsWarmReadsOverReplicas(t *testing.T) {
	const n, first = 64, 401
	c := newTestCluster(t, 2)
	seeds := make([]string, n)
	for i := range seeds {
		seeds[i] = fmt.Sprint(first + i)
	}
	if code, _, b := postSweep(t, c.writerTS.URL, `{"seeds":[`+strings.Join(seeds, ",")+`]}`, false); code != http.StatusOK {
		t.Fatalf("warming sweep: status %d: %s", code, b)
	}
	c.sync(t)

	names := []string{"http://127.0.0.1:8081", "http://127.0.0.1:8082"}
	addrs := map[string]string{}
	for i, name := range names {
		addrs[strings.TrimPrefix(name, "http://")] = c.replicaTS[i].Listener.Addr().String()
	}
	tr := dialAs(addrs)
	_, pts := c.newProxy(t, Options{Replicas: names, CacheEntries: -1, Client: &http.Client{Transport: tr}})
	t.Cleanup(tr.CloseIdleConnections)

	served := map[string]int{}
	for i := range n {
		resp := postScenario(t, pts.URL, uint64(first+i), nil)
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("seed %d through proxy: status %d", first+i, resp.StatusCode)
		}
		served[resp.Header.Get("X-Sweepd-Route")]++
	}
	t.Logf("warm reads served per replica: %v", served)
	for _, name := range names {
		if served[name] < n/4 {
			t.Fatalf("replica %s served %d of %d warm reads, want >= %d: %v", name, served[name], n, n/4, served)
		}
	}
	if served[names[0]]+served[names[1]] != n {
		t.Fatalf("warm reads left the replicas: %v", served)
	}
}

// TestProxyCandidatesDoNotAllocate: a hop's member choice reads the
// ring's per-shard table into the caller's buffer — for every shard,
// exactly the shard key's Ring.Order, then the writer — and allocates
// nothing.
func TestProxyCandidatesDoNotAllocate(t *testing.T) {
	names := []string{"http://r-a.test", "http://r-b.test", "http://r-c.test"}
	p, err := NewProxy(Options{Writer: "http://w.test", Replicas: names, HealthInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(p.Close)
	ring, err := NewRing(names, 0)
	if err != nil {
		t.Fatal(err)
	}
	scs, err := sweep.Grid{Seeds: []uint64{1, 2, 3, 4, 5, 6, 7, 8}}.Scenarios()
	if err != nil {
		t.Fatal(err)
	}
	ids := []string{"not-a-hash"}
	for s := range 256 {
		ids = append(ids, fmt.Sprintf("%02x", s))
	}
	var buf [8]*member
	for _, id := range ids {
		var got []string
		for _, m := range p.candidates(buf[:0], id) {
			got = append(got, m.url)
		}
		if want := append(ring.Order(store.ShardOf(id)), "http://w.test"); !slices.Equal(got, want) {
			t.Fatalf("id %s: candidates %v, want %v", id, got, want)
		}
	}
	for _, sc := range scs {
		if n := testing.AllocsPerRun(100, func() { p.candidates(buf[:0], sc.ID) }); n != 0 {
			t.Fatalf("candidates(%s) allocates %v times, want 0", sc.ID, n)
		}
	}
}

// TestProxySweepColdBoundsWriterLoad: a cold sweep's cells all end at
// the writer, whichever replica owns them, and the writer's 429 is
// final. The fan-out is bounded in total, not per member, so a writer
// admitting exactly the fan-out's width never sheds, however the ring
// spreads the cells. The replicas get names the test's transport dials,
// picked so that at least two of the three own two or more cells each.
func TestProxySweepColdBoundsWriterLoad(t *testing.T) {
	const spec = `{"seeds":[391,392,393,394],"edge_upf":[false,true],"mobile_nodes":[10,20]}`
	g := sweep.Grid{Seeds: []uint64{391, 392, 393, 394}, EdgeUPF: []bool{false, true}, MobileNodes: []int{10, 20}}
	scs, err := g.Scenarios()
	if err != nil {
		t.Fatal(err)
	}
	const width = 2
	var sims atomic.Int64
	writer, err := serve.New(serve.Options{
		SimWorkers: 1,
		QueueDepth: width - 1,
		Runner: func(cfg campaign.Config) (*campaign.Result, error) {
			sims.Add(1)
			time.Sleep(5 * time.Millisecond) // overlap the fan-out's requests
			return campaign.Run(cfg)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	wts := httptest.NewServer(writer.Handler())
	t.Cleanup(func() { wts.Close(); writer.Close() })

	var names []string
	for k := 0; names == nil; k++ {
		if k == 10000 {
			t.Fatal("no replica names found whose ring spreads the grid")
		}
		try := []string{fmt.Sprintf("http://r%d-a.test", k), fmt.Sprintf("http://r%d-b.test", k), fmt.Sprintf("http://r%d-c.test", k)}
		ring, err := NewRing(try, 0)
		if err != nil {
			t.Fatal(err)
		}
		owned := map[string]int{}
		for _, sc := range scs {
			owned[ring.Lookup(store.ShardOf(sc.ID))]++
		}
		busy := 0
		for _, n := range owned {
			if n >= width {
				busy++
			}
		}
		if busy >= 2 {
			names = try
		}
	}
	addrs := map[string]string{}
	for _, name := range names {
		r, err := serve.New(serve.Options{QueueDepth: -1})
		if err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(r.Handler())
		t.Cleanup(func() { ts.Close(); r.Close() })
		addrs[strings.TrimPrefix(name, "http://")+":80"] = ts.Listener.Addr().String()
	}
	tr := dialAs(addrs)
	tr.MaxIdleConnsPerHost = width
	p, err := NewProxy(Options{
		Writer:         wts.URL,
		Replicas:       names,
		HealthInterval: -1,
		CacheEntries:   -1,
		Client:         &http.Client{Transport: tr},
	})
	if err != nil {
		t.Fatal(err)
	}
	pts := httptest.NewServer(p.Handler())
	t.Cleanup(func() { pts.Close(); p.Close(); tr.CloseIdleConnections() })

	code, _, body := postSweep(t, pts.URL, spec, true)
	if code != http.StatusOK {
		t.Fatalf("cold proxied sweep: status %d: %s", code, body)
	}
	if n := sims.Load(); n != int64(len(scs)) {
		t.Fatalf("writer simulated %d scenarios, want %d", n, len(scs))
	}
	if shed := writer.StatsSnapshot().Sim.Shed; shed != 0 {
		t.Fatalf("writer shed %d misses", shed)
	}
}

// TestProxyRejectsBadRequests: malformed axes and oversized grids fail
// at the proxy without touching a backend.
func TestProxyRejectsBadRequests(t *testing.T) {
	c := newTestCluster(t, 0)
	_, pts := c.newProxy(t, Options{Replicas: []string{}, MaxGridScenarios: 4})

	resp, err := http.Post(pts.URL+"/v1/scenario", "application/json",
		strings.NewReader(`{"seed":1,"bogus":true}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("unknown field: status %d, want 400", resp.StatusCode)
	}

	resp, err = http.Post(pts.URL+"/v1/sweep", "application/json",
		strings.NewReader(`{"seeds":[1,2,3],"edge_upf":[false,true]}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized grid: status %d, want 413", resp.StatusCode)
	}

	st := proxyStats(t, pts.URL)
	if st.Writer.Requests != 0 {
		t.Fatalf("rejected requests reached the writer %d times", st.Writer.Requests)
	}
}

// TestProxyErrorParityWithWriter: a malformed request answers the same
// status, Allow header and body bytes through the proxy as from the
// writer directly, whether the proxy validates it itself (/v1/scenario,
// /v1/sweep) or forwards it (/v1/deltas). Method and body-size rejections
// never cost a writer round trip.
func TestProxyErrorParityWithWriter(t *testing.T) {
	c := newTestCluster(t, 0)
	p, pts := c.newProxy(t, Options{})
	pad := strings.Repeat(" ", httpapi.MaxBodyBytes)
	type row struct{ method, path, body string }
	var rows []row
	for _, b := range []string{`{"seed":1,"bogus":true}`, `not json`, `{"profile":"7G"}`, `{"profile":"7G"} x`, `{"seed":` + pad + `1}`, `{"seed":1}` + pad} {
		rows = append(rows, row{http.MethodPost, "/v1/scenario", b})
	}
	for _, path := range []string{"/v1/sweep", "/v1/deltas"} {
		for _, b := range []string{`{"seeds":[1],"bogus":true}`, `not json`, `{"profiles":["7G"]}`, `{"seeds":[1,1]}`, `{"seeds":[1,` + pad + `2]}`} {
			rows = append(rows, row{http.MethodPost, path, b})
		}
	}
	for _, path := range []string{"/v1/scenario", "/v1/sweep", "/v1/deltas"} {
		rows = append(rows, row{http.MethodGet, path, ""})
	}

	send := func(base string, rw row) (int, string, []byte) {
		t.Helper()
		req, err := http.NewRequest(rw.method, base+rw.path, strings.NewReader(rw.body))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		b, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, resp.Header.Get("Allow"), b
	}
	forwarded := int64(0)
	for _, rw := range rows {
		name := rw.method + " " + rw.path + " " + rw.body
		if len(name) > 60 {
			name = name[:60] + "..."
		}
		wantCode, wantAllow, wantBody := send(c.writerTS.URL, rw)
		gotCode, gotAllow, gotBody := send(pts.URL, rw)
		if wantCode < 400 {
			t.Fatalf("%s: writer answered %d, want an error", name, wantCode)
		}
		if gotCode != wantCode || gotAllow != wantAllow || !bytes.Equal(gotBody, wantBody) {
			t.Errorf("%s:\nproxy  %d Allow=%q %s\nwriter %d Allow=%q %s",
				name, gotCode, gotAllow, gotBody, wantCode, wantAllow, wantBody)
		}
		if rw.path == "/v1/deltas" && rw.method == http.MethodPost && len(rw.body) < httpapi.MaxBodyBytes {
			forwarded++
		}
	}
	if got := p.writer.requests.Load(); got != forwarded {
		t.Fatalf("proxy sent %d requests to the writer, want %d (only well-sized /v1/deltas POSTs)", got, forwarded)
	}
}

// postSweep streams one /v1/sweep answer, asking for TLV when tlvAsk
// is set, and returns its status, Content-Type and body.
func postSweep(t *testing.T, url, spec string, tlvAsk bool) (int, string, []byte) {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, url+"/v1/sweep", strings.NewReader(spec))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	if tlvAsk {
		req.Header.Set("Accept", tlv.MediaType)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, resp.Header.Get("Content-Type"), b
}

// referenceSweep returns a standalone sweepd's own /v1/sweep body for
// spec in both encodings: what a proxied stream must equal byte for
// byte.
func referenceSweep(t *testing.T, spec string) (tlvBody, jsonl []byte) {
	t.Helper()
	srv, err := serve.New(serve.Options{SimWorkers: 2})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() { ts.Close(); srv.Close() })
	for _, tlvAsk := range []bool{true, false} {
		code, _, b := postSweep(t, ts.URL, spec, tlvAsk)
		if code != http.StatusOK {
			t.Fatalf("reference sweep: status %d: %s", code, b)
		}
		if tlvAsk {
			tlvBody = b
		} else {
			jsonl = b
		}
	}
	return tlvBody, jsonl
}

// TestProxySweepTLVNegotiation: a sweep through the proxy with the
// binary media type in Accept is byte-identical to a single sweepd's
// TLV stream — cold, warm from the replicas, from the proxy's response
// cache, and with a replica down mid-fan-out — while clients that
// don't ask keep the byte-identical JSONL contract.
func TestProxySweepTLVNegotiation(t *testing.T) {
	spec := `{"seeds":[361,362],"edge_upf":[false,true]}`
	// sweepd's own TLV stream decodes to its JSONL records
	// (serve's TestSweepStreamTLVNegotiation), so equal bytes suffice.
	want, jsonl := referenceSweep(t, spec)

	c := newTestCluster(t, 2)
	_, routed := c.newProxy(t, Options{CacheEntries: -1}) // every cell reaches a backend
	_, cached := c.newProxy(t, Options{})
	check := func(what, url string) {
		t.Helper()
		code, ct, got := postSweep(t, url, spec, true)
		if code != http.StatusOK || ct != tlv.MediaType {
			t.Fatalf("%s: status %d, Content-Type %q: %s", what, code, ct, got)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("%s proxied TLV sweep differs from sweepd's (%d vs %d bytes)", what, len(got), len(want))
		}
	}
	check("cold", routed.URL)
	c.sync(t)
	check("warm", routed.URL)
	check("cache-filling", cached.URL)
	check("cached", cached.URL)
	c.flaky[0].down.Store(true)
	check("degraded", routed.URL)

	// Non-negotiating client after TLV traffic: still byte-identical JSONL.
	for _, url := range []string{routed.URL, cached.URL} {
		if code, _, b := postSweep(t, url, spec, false); code != http.StatusOK || !bytes.Equal(b, jsonl) {
			t.Fatalf("JSONL sweep after TLV traffic drifted (status %d, %d vs %d bytes)", code, len(b), len(jsonl))
		}
	}
	if st := proxyStats(t, routed.URL); st.Sweep.TLVStreams != 3 {
		t.Fatalf("Sweep.TLVStreams = %d, want 3", st.Sweep.TLVStreams)
	}
}

// askScenario posts one seed's /v1/scenario with the given Accept and
// If-None-Match headers ("" leaves a header out) and returns the
// response with its body read.
func askScenario(t *testing.T, url string, seed uint64, accept, inm string) (*http.Response, []byte) {
	t.Helper()
	hdr := map[string]string{}
	if accept != "" {
		hdr["Accept"] = accept
	}
	if inm != "" {
		hdr["If-None-Match"] = inm
	}
	resp := postScenario(t, url, seed, hdr)
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, b
}

// TestProxyScenarioEncodings: /v1/scenario through the proxy answers
// the writer's bytes and headers in both encodings, routed to a replica
// and from the response cache, and a validator for one encoding never
// earns a 304 for the other.
func TestProxyScenarioEncodings(t *testing.T) {
	const seed = 381
	c := newTestCluster(t, 2)
	if resp, _ := askScenario(t, c.writerTS.URL, seed, "", ""); resp.StatusCode != http.StatusOK {
		t.Fatalf("warming: status %d", resp.StatusCode)
	}
	c.sync(t)
	_, pts := c.newProxy(t, Options{})
	etags := map[string]string{}
	for _, accept := range []string{tlv.MediaType, ""} {
		want, wantBody := askScenario(t, c.writerTS.URL, seed, accept, "")
		etags[accept] = want.Header.Get("ETag")
		for _, route := range []string{"replica", "cache"} {
			got, body := askScenario(t, pts.URL, seed, accept, "")
			if got.StatusCode != http.StatusOK || !bytes.Equal(body, wantBody) {
				t.Fatalf("Accept %q via %s: status %d, bytes differ from the writer's", accept, route, got.StatusCode)
			}
			for _, h := range []string{"Content-Type", "ETag", "Vary"} {
				if got.Header.Get(h) != want.Header.Get(h) {
					t.Fatalf("Accept %q via %s: %s %q, writer %q", accept, route, h, got.Header.Get(h), want.Header.Get(h))
				}
			}
			r := got.Header.Get("X-Sweepd-Route")
			if (route == "cache") != (r == "cache") || r == c.writerTS.URL {
				t.Fatalf("Accept %q: routed to %q, want the %s", accept, r, route)
			}
		}
	}
	if etags[tlv.MediaType] == etags[""] {
		t.Fatalf("both encodings carry ETag %s", etags[""])
	}
	for _, tc := range []struct {
		accept, inm string
		code        int
	}{
		{tlv.MediaType, etags[""], http.StatusOK},
		{"", etags[tlv.MediaType], http.StatusOK},
		{tlv.MediaType, etags[tlv.MediaType], http.StatusNotModified},
		{"", etags[""], http.StatusNotModified},
	} {
		resp, body := askScenario(t, pts.URL, seed, tc.accept, tc.inm)
		if resp.StatusCode != tc.code || resp.Header.Get("Vary") != "Accept" {
			t.Fatalf("Accept %q If-None-Match %s: status %d Vary %q, want %d Accept",
				tc.accept, tc.inm, resp.StatusCode, resp.Header.Get("Vary"), tc.code)
		}
		if tc.code == http.StatusNotModified && len(body) != 0 {
			t.Fatalf("304 carried %d bytes", len(body))
		}
	}
}

// TestProxyTLVAcrossVersions is the mixed-version rollout: a member
// that answers a TLV ask with JSON (a sweepd from before TLV
// /v1/scenario) counts as a member failure, so the proxy tries the next
// member and the stream still equals sweepd's; the member stays in the
// ring for JSON asks. When every member answers that way, a TLV sweep
// or scenario fails with 502 instead of a 200 a client could take for
// a complete stream.
func TestProxyTLVAcrossVersions(t *testing.T) {
	spec := `{"seeds":[391,392]}`
	want, jsonl := referenceSweep(t, spec)
	c := newTestCluster(t, 1)
	if code, _, b := postSweep(t, c.writerTS.URL, spec, false); code != http.StatusOK {
		t.Fatalf("warming: status %d: %s", code, b)
	}
	c.sync(t)
	c.flaky[0].preTLV.Store(true)
	_, pts := c.newProxy(t, Options{CacheEntries: -1})
	if code, ct, got := postSweep(t, pts.URL, spec, true); code != http.StatusOK || ct != tlv.MediaType || !bytes.Equal(got, want) {
		t.Fatalf("TLV sweep past a pre-TLV replica: status %d, %d vs %d bytes", code, len(got), len(want))
	}
	st := proxyStats(t, pts.URL)
	if r := st.Replicas[0]; r.Errors != 2 || !r.Healthy || st.Writer.Requests != 2 {
		t.Fatalf("replica %+v, writer requests %d: want 2 replica errors, still healthy, 2 writer answers", r, st.Writer.Requests)
	}
	if code, _, got := postSweep(t, pts.URL, spec, false); code != http.StatusOK || !bytes.Equal(got, jsonl) {
		t.Fatalf("JSONL sweep via the pre-TLV replica: status %d", code)
	}

	// Every member pre-TLV: no 200.
	old := &flakyHandler{h: c.writer.Handler()}
	old.preTLV.Store(true)
	ots := httptest.NewServer(old)
	t.Cleanup(ots.Close)
	p, err := NewProxy(Options{Writer: ots.URL, HealthInterval: -1, CacheEntries: -1})
	if err != nil {
		t.Fatal(err)
	}
	opts := httptest.NewServer(p.Handler())
	t.Cleanup(func() { opts.Close(); p.Close() })
	if code, _, b := postSweep(t, opts.URL, spec, true); code != http.StatusBadGateway {
		t.Fatalf("TLV sweep with no TLV-capable member: status %d, want 502: %q", code, b)
	}
	if resp, _ := askScenario(t, opts.URL, 391, tlv.MediaType, ""); resp.StatusCode != http.StatusBadGateway {
		t.Fatalf("TLV scenario with no TLV-capable member: status %d, want 502", resp.StatusCode)
	}
	if code, _, got := postSweep(t, opts.URL, spec, false); code != http.StatusOK || !bytes.Equal(got, jsonl) {
		t.Fatalf("JSONL sweep via a pre-TLV writer: status %d", code)
	}
}

// TestTracePropagatesAcrossTiers: one client traceparent spans every
// hop of a cold scenario — the proxy, the store-only replica that
// sheds it, and the writer it falls through to — and each tier's JSONL
// export carries the same trace ID, so concatenated -trace-out files
// join into one cross-tier trace.
func TestTracePropagatesAcrossTiers(t *testing.T) {
	var proxySpans, replicaSpans, writerSpans bytes.Buffer
	w, err := serve.New(serve.Options{
		CacheDir:   t.TempDir(),
		SimWorkers: 2,
		Tracer:     obs.NewTracer(obs.TracerOptions{Service: "sweepd-writer", Writer: &writerSpans, SampleN: 1}),
	})
	if err != nil {
		t.Fatal(err)
	}
	wts := httptest.NewServer(w.Handler())
	t.Cleanup(func() { wts.Close(); w.Close() })

	r, err := serve.New(serve.Options{
		CacheDir:   t.TempDir(),
		QueueDepth: -1,
		Tracer:     obs.NewTracer(obs.TracerOptions{Service: "sweepd-replica", Writer: &replicaSpans, SampleN: 1}),
	})
	if err != nil {
		t.Fatal(err)
	}
	rts := httptest.NewServer(r.Handler())
	t.Cleanup(func() { rts.Close(); r.Close() })

	p, err := NewProxy(Options{
		Writer:         wts.URL,
		Replicas:       []string{rts.URL},
		HealthInterval: -1,
		CacheEntries:   -1,
		Tracer:         obs.NewTracer(obs.TracerOptions{Service: "sweep-proxy", Writer: &proxySpans, SampleN: 1}),
	})
	if err != nil {
		t.Fatal(err)
	}
	pts := httptest.NewServer(p.Handler())
	t.Cleanup(func() { pts.Close(); p.Close() })

	const traceID = "4bf92f3577b34da6a3ce929d0e0e4736"
	resp := postScenario(t, pts.URL, 361, map[string]string{
		obs.TraceparentHeader: "00-" + traceID + "-00f067aa0ba902b7-01",
	})
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("traced scenario: status %d", resp.StatusCode)
	}
	if got := resp.Header.Get(obs.TraceResponseHeader); got != traceID {
		t.Fatalf("%s = %q, want %q", obs.TraceResponseHeader, got, traceID)
	}

	tierSpans := func(name string, buf *bytes.Buffer) []obs.SpanRecord {
		t.Helper()
		recs, err := obs.ReadSpans(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("%s span export: %v", name, err)
		}
		if len(recs) == 0 {
			t.Fatalf("%s exported no spans", name)
		}
		return recs
	}
	proxySpan := tierSpans("proxy", &proxySpans)[0]
	if proxySpan.Trace != traceID || proxySpan.Parent != "00f067aa0ba902b7" {
		t.Fatalf("proxy span trace=%s parent=%s, want client trace/parent", proxySpan.Trace, proxySpan.Parent)
	}
	// Both backend hops — the shed replica and the writer fall-through —
	// carry the same trace ID, each a child of the proxy's span.
	for _, tier := range []struct {
		name string
		buf  *bytes.Buffer
	}{{"replica", &replicaSpans}, {"writer", &writerSpans}} {
		for _, sp := range tierSpans(tier.name, tier.buf) {
			if sp.Trace != traceID {
				t.Fatalf("%s span trace = %s, want %s", tier.name, sp.Trace, traceID)
			}
			if sp.Parent != proxySpan.Span {
				t.Fatalf("%s span parent = %s, want proxy span %s", tier.name, sp.Parent, proxySpan.Span)
			}
		}
	}

	st := proxyStats(t, pts.URL)
	if st.Scenario.Fallthrough != 1 || st.Scenario.Routed != 0 {
		t.Fatalf("scenario routing counters routed=%d fallthrough=%d, want 0/1",
			st.Scenario.Routed, st.Scenario.Fallthrough)
	}
}
