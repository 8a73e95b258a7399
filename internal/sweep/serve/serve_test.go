package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/campaign"
	"repro/internal/sweep"
	"repro/internal/sweep/httpapi"
	"repro/internal/sweep/tlv"
)

func post(t *testing.T, client *http.Client, url, body string) *http.Response {
	t.Helper()
	resp, err := client.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func readAll(t *testing.T, resp *http.Response) []byte {
	t.Helper()
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestScenarioMissSimulatesExactlyOnce is acceptance (a): concurrent
// identical /v1/scenario requests on a cold cache must simulate exactly
// once — the cache's singleflight holds over HTTP — and every caller
// gets the same record.
func TestScenarioMissSimulatesExactlyOnce(t *testing.T) {
	var sims atomic.Int64
	srv, err := New(Options{
		SimWorkers: 4,
		Runner: func(cfg campaign.Config) (*campaign.Result, error) {
			sims.Add(1)
			// Widen the race window: followers must join the flight, not
			// find a warm cache.
			time.Sleep(50 * time.Millisecond)
			return campaign.Run(cfg)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ts := httptest.NewServer(srv)
	defer ts.Close()

	const callers = 8
	bodies := make([][]byte, callers)
	statuses := make([]int, callers)
	caches := make([]string, callers)
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, err := http.Post(ts.URL+"/v1/scenario", "application/json",
				strings.NewReader(`{"seed":21}`))
			if err != nil {
				t.Error(err)
				return
			}
			defer resp.Body.Close()
			statuses[i] = resp.StatusCode
			caches[i] = resp.Header.Get("X-Sweepd-Cache")
			bodies[i], _ = io.ReadAll(resp.Body)
		}(i)
	}
	wg.Wait()

	if got := sims.Load(); got != 1 {
		t.Fatalf("%d concurrent identical requests ran %d simulations, want 1", callers, got)
	}
	missCount := 0
	for i := 0; i < callers; i++ {
		if statuses[i] != http.StatusOK {
			t.Fatalf("caller %d got status %d: %s", i, statuses[i], bodies[i])
		}
		if !bytes.Equal(bodies[i], bodies[0]) {
			t.Fatalf("caller %d received a different record", i)
		}
		if caches[i] == "miss" {
			missCount++
		}
	}
	if missCount != 1 {
		t.Fatalf("%d callers reported a miss, want exactly 1 (the flight leader)", missCount)
	}

	var rec sweep.Record
	if err := json.Unmarshal(bodies[0], &rec); err != nil {
		t.Fatal(err)
	}
	if rec.Seed != 21 || rec.Scenario == "" {
		t.Fatalf("record looks wrong: %+v", rec)
	}
}

// TestSweepStreamByteIdenticalToEngine is acceptance (b): the
// /v1/sweep stream must be byte-identical to the sweep engine's JSONL
// export (which is what cmd/sweep -out writes), cold and warm alike,
// with trailers accounting the cache traffic.
func TestSweepStreamByteIdenticalToEngine(t *testing.T) {
	srv, err := New(Options{SimWorkers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ts := httptest.NewServer(srv)
	defer ts.Close()

	grid := `{"seeds":[1,2],"edge_upf":[false,true]}`
	want, err := sweep.Run(sweep.Grid{Seeds: []uint64{1, 2}, EdgeUPF: []bool{false, true}},
		sweep.Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	golden, err := want.ExportJSONL()
	if err != nil {
		t.Fatal(err)
	}

	for _, p := range []struct{ pass, wantMisses string }{{"cold", "4"}, {"warm", "0"}} {
		pass, wantMisses := p.pass, p.wantMisses
		resp := post(t, ts.Client(), ts.URL+"/v1/sweep", grid)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s pass: status %d", pass, resp.StatusCode)
		}
		if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
			t.Fatalf("%s pass: content type %q", pass, ct)
		}
		body := readAll(t, resp)
		if !bytes.Equal(body, golden) {
			t.Fatalf("%s pass: streamed JSONL differs from the engine export", pass)
		}
		if got := resp.Trailer.Get("X-Sweepd-Cache-Misses"); got != wantMisses {
			t.Fatalf("%s pass: trailer reports %s misses, want %s", pass, got, wantMisses)
		}
	}
}

// TestFullQueueShedsWith429 is acceptance (c): with the one worker
// busy and the one queue slot taken, further distinct misses must shed
// immediately with 429 + Retry-After, and the goroutine count must not
// grow with the number of shed requests.
func TestFullQueueShedsWith429(t *testing.T) {
	block := make(chan struct{})
	started := make(chan struct{}, 16)
	srv, err := New(Options{
		SimWorkers: 1,
		QueueDepth: 1,
		Runner: func(cfg campaign.Config) (*campaign.Result, error) {
			started <- struct{}{}
			<-block
			return campaign.Run(cfg)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ts := httptest.NewServer(srv)
	defer ts.Close()

	// Occupy the worker (request A simulates) and the queue slot
	// (request B is admitted, waiting for the worker).
	results := make(chan int, 2)
	fire := func(seed int) {
		resp, err := http.Post(ts.URL+"/v1/scenario", "application/json",
			strings.NewReader(fmt.Sprintf(`{"seed":%d}`, seed)))
		if err != nil {
			t.Error(err)
			results <- 0
			return
		}
		resp.Body.Close()
		results <- resp.StatusCode
	}
	go fire(100)
	<-started // A is inside the runner, holding the worker slot
	go fire(101)
	// B occupies the admission queue; it never reaches the runner while
	// A blocks, so poll the server's queued gauge.
	deadline := time.Now().Add(5 * time.Second)
	for srv.queued.Load() == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if srv.queued.Load() == 0 {
		t.Fatal("second request never queued")
	}

	before := runtime.NumGoroutine()
	const shedTries = 64
	for i := 0; i < shedTries; i++ {
		resp := post(t, ts.Client(), ts.URL+"/v1/scenario",
			fmt.Sprintf(`{"seed":%d}`, 200+i))
		if resp.StatusCode != http.StatusTooManyRequests {
			t.Fatalf("request %d: status %d, want 429", i, resp.StatusCode)
		}
		if resp.Header.Get("Retry-After") == "" {
			t.Fatal("429 without Retry-After")
		}
		resp.Body.Close()
	}
	after := runtime.NumGoroutine()
	if after > before+shedTries/2 {
		t.Fatalf("shed requests leaked goroutines: %d -> %d", before, after)
	}

	// Unblock: both occupied requests must complete successfully.
	close(block)
	for i := 0; i < 2; i++ {
		if code := <-results; code != http.StatusOK {
			t.Fatalf("occupying request finished with %d", code)
		}
	}

	var st Stats
	r2, err := http.Get(ts.URL + "/statsz")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(r2.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	r2.Body.Close()
	if st.Sim.Shed != shedTries {
		t.Fatalf("statsz counts %d shed, want %d", st.Sim.Shed, shedTries)
	}
	if st.Sim.Inflight != 0 || st.Sim.Queued != 0 {
		t.Fatalf("gauges not drained: inflight=%d queued=%d", st.Sim.Inflight, st.Sim.Queued)
	}
}

// TestStoreOnlyReplicaServesHitsShedsMisses: QueueDepth < 0 turns a
// warm cache directory into a read replica — hits serve, every miss
// sheds deterministically with 429, and nothing ever simulates.
func TestStoreOnlyReplicaServesHitsShedsMisses(t *testing.T) {
	dir := t.TempDir()

	// Warm the directory with one scenario through a normal server.
	warm, err := New(Options{CacheDir: dir, SimWorkers: 2})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(warm)
	resp := post(t, ts.Client(), ts.URL+"/v1/scenario", `{"seed":31}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("warming request: status %d", resp.StatusCode)
	}
	warmBody := readAll(t, resp)
	ts.Close()
	if err := warm.Close(); err != nil { // flushes the store
		t.Fatal(err)
	}

	var sims atomic.Int64
	replica, err := New(Options{
		CacheDir:   dir,
		QueueDepth: -1,
		Runner: func(cfg campaign.Config) (*campaign.Result, error) {
			sims.Add(1)
			return campaign.Run(cfg)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer replica.Close()
	rs := httptest.NewServer(replica)
	defer rs.Close()

	hit := post(t, rs.Client(), rs.URL+"/v1/scenario", `{"seed":31}`)
	if hit.StatusCode != http.StatusOK || hit.Header.Get("X-Sweepd-Cache") != "hit" {
		t.Fatalf("replica should serve the warmed scenario: status %d cache %q",
			hit.StatusCode, hit.Header.Get("X-Sweepd-Cache"))
	}
	if !bytes.Equal(readAll(t, hit), warmBody) {
		t.Fatal("replica served different bytes than the writer")
	}
	miss := post(t, rs.Client(), rs.URL+"/v1/scenario", `{"seed":32}`)
	if miss.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("replica miss: status %d, want 429", miss.StatusCode)
	}
	miss.Body.Close()
	if sims.Load() != 0 {
		t.Fatalf("replica simulated %d scenarios", sims.Load())
	}
}

// TestRequestValidation: malformed bodies, unknown axes, oversized
// grids and wrong methods map to precise HTTP statuses.
func TestRequestValidation(t *testing.T) {
	srv, err := New(Options{SimWorkers: 1, MaxGridScenarios: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ts := httptest.NewServer(srv)
	defer ts.Close()

	cases := []struct {
		path, body string
		want       int
	}{
		{"/v1/scenario", `{"seed":1,"bogus":true}`, http.StatusBadRequest},
		{"/v1/scenario", `{"profile":"7G"}`, http.StatusBadRequest},
		{"/v1/scenario", `not json`, http.StatusBadRequest},
		// Only the first JSON value is decoded: bytes after it are
		// ignored, as they always were.
		{"/v1/scenario", `{"seed":1} x`, http.StatusOK},
		// The whole body is read before it is decoded, so a valid value
		// padded past the bound is refused, not answered.
		{"/v1/scenario", `{"seed":1}` + strings.Repeat(" ", httpapi.MaxBodyBytes), http.StatusBadRequest},
		// Off-grid cells surface from the simulation itself, but are
		// config errors a retry can't fix: bad request, not 500.
		{"/v1/scenario", `{"target_cells":["Z9"]}`, http.StatusBadRequest},
		{"/v1/scenario", `{"slicing":"none","slicing_sites":4}`, http.StatusBadRequest},
		{"/v1/sweep", `{"slicing":["quantum"]}`, http.StatusBadRequest},
		{"/v1/sweep", `{"wired_rounds":[-2]}`, http.StatusBadRequest},
		{"/v1/sweep", `{"seeds":[1,2,3],"local_peering":[false,true],"edge_upf":[false,true]}`,
			http.StatusRequestEntityTooLarge}, // 12 > 8
		{"/v1/sweep", `{"seeds":[1,1]}`, http.StatusBadRequest}, // duplicate scenarios
		{"/v1/deltas", `{"profiles":["7G"]}`, http.StatusBadRequest},
	}
	for _, c := range cases {
		resp := post(t, ts.Client(), ts.URL+c.path, c.body)
		if resp.StatusCode != c.want {
			t.Errorf("POST %s %.40q: status %d, want %d", c.path, c.body, resp.StatusCode, c.want)
		}
		resp.Body.Close()
	}

	for _, path := range []string{"/v1/scenario", "/v1/sweep", "/v1/deltas"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusMethodNotAllowed {
			t.Errorf("GET %s: status %d, want 405", path, resp.StatusCode)
		}
		resp.Body.Close()
	}
}

// TestDeltasEndpoint: a grid with a peering axis yields the
// local_peering recommendation rows, with cache accounting.
func TestDeltasEndpoint(t *testing.T) {
	srv, err := New(Options{SimWorkers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ts := httptest.NewServer(srv)
	defer ts.Close()

	resp := post(t, ts.Client(), ts.URL+"/v1/deltas", `{"seeds":[1],"local_peering":[false,true]}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, readAll(t, resp))
	}
	var dr DeltasResponse
	if err := json.Unmarshal(readAll(t, resp), &dr); err != nil {
		t.Fatal(err)
	}
	if dr.Scenarios != 2 || dr.Variants != 2 || dr.CacheMisses != 2 {
		t.Fatalf("unexpected accounting: %+v", dr)
	}
	if len(dr.Deltas) != 1 || dr.Deltas[0].Axis != "local_peering" {
		t.Fatalf("unexpected deltas: %+v", dr.Deltas)
	}
}

// TestHealthzAndGracefulShutdown: healthz reports the store, Shutdown
// drains a running listener, and the flushed store reopens with every
// record the server persisted.
func TestHealthzAndGracefulShutdown(t *testing.T) {
	dir := t.TempDir()
	srv, err := New(Options{CacheDir: dir, SimWorkers: 2})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)

	resp := post(t, ts.Client(), ts.URL+"/v1/sweep", `{"seeds":[41,42]}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("sweep: status %d", resp.StatusCode)
	}
	stream := readAll(t, resp)

	hresp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var health map[string]any
	if err := json.NewDecoder(hresp.Body).Decode(&health); err != nil {
		t.Fatal(err)
	}
	hresp.Body.Close()
	if health["status"] != "ok" || health["records"].(float64) != 2 {
		t.Fatalf("healthz: %v", health)
	}

	ts.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	// Close is idempotent, and a handler that raced past the close (a
	// request outliving the drain timeout) must not panic: /healthz
	// still answers over the closed store.
	if err := srv.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	rr := httptest.NewRecorder()
	srv.ServeHTTP(rr, httptest.NewRequest(http.MethodGet, "/healthz", nil))
	if rr.Code != http.StatusOK {
		t.Fatalf("healthz after Close: status %d", rr.Code)
	}

	// The drained store must hold both scenarios, byte-identically: a
	// fresh server over the same directory replays the sweep as 100%
	// hits producing the same stream.
	re, err := New(Options{CacheDir: dir, QueueDepth: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	rs := httptest.NewServer(re)
	defer rs.Close()
	resp2 := post(t, rs.Client(), rs.URL+"/v1/sweep", `{"seeds":[41,42]}`)
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("replayed sweep: status %d", resp2.StatusCode)
	}
	if !bytes.Equal(readAll(t, resp2), stream) {
		t.Fatal("replayed stream differs from the original")
	}
}

// TestGridJobLimitSheds: the grid-job table bounds concurrently
// executing sweep requests; an occupied table sheds with 429.
func TestGridJobLimitSheds(t *testing.T) {
	block := make(chan struct{})
	started := make(chan struct{}, 4)
	srv, err := New(Options{
		SimWorkers:  1,
		MaxGridJobs: 1,
		Runner: func(cfg campaign.Config) (*campaign.Result, error) {
			started <- struct{}{}
			<-block
			return campaign.Run(cfg)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ts := httptest.NewServer(srv)
	defer ts.Close()

	done := make(chan int, 1)
	go func() {
		resp, err := http.Post(ts.URL+"/v1/sweep", "application/json",
			strings.NewReader(`{"seeds":[51]}`))
		if err != nil {
			done <- 0
			return
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		done <- resp.StatusCode
	}()
	<-started // the sweep occupies the single grid-job slot

	resp := post(t, ts.Client(), ts.URL+"/v1/deltas", `{"seeds":[52]}`)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("second grid request: status %d, want 429", resp.StatusCode)
	}
	resp.Body.Close()

	// The rejection is accounted to the grid-job counter, not the
	// simulation queue — they are different tuning knobs.
	var st Stats
	sresp, err := http.Get(ts.URL + "/statsz")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(sresp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	sresp.Body.Close()
	if st.Grid.Shed != 1 || st.Sim.Shed != 0 {
		t.Fatalf("shed accounting: grid=%d sim=%d, want 1/0", st.Grid.Shed, st.Sim.Shed)
	}

	close(block)
	if code := <-done; code != http.StatusOK {
		t.Fatalf("first sweep finished with %d", code)
	}

	// Emptied table admits again.
	resp = post(t, ts.Client(), ts.URL+"/v1/deltas", `{"seeds":[51]}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("post-drain grid request: status %d", resp.StatusCode)
	}
	resp.Body.Close()
}

// TestScenarioETagSemantics is the conditional-request contract:
// responses carry the scenario ID as their ETag, If-None-Match on a
// warm id answers 304 with an empty body (accounted in statsz), and a
// cold id ignores the precondition and serves the full record — a 304
// must never vouch for bytes the server never produced.
func TestScenarioETagSemantics(t *testing.T) {
	srv, err := New(Options{SimWorkers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ts := httptest.NewServer(srv)
	defer ts.Close()

	resp := post(t, ts.Client(), ts.URL+"/v1/scenario", `{"seed":61}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("warming request: status %d", resp.StatusCode)
	}
	etag := resp.Header.Get("ETag")
	body := readAll(t, resp)
	var rec sweep.Record
	if err := json.Unmarshal(body, &rec); err != nil {
		t.Fatal(err)
	}
	if etag != `"`+rec.Scenario+`"` {
		t.Fatalf("ETag %q does not quote the scenario id %q", etag, rec.Scenario)
	}

	conditional := func(seed int, inm string) *http.Response {
		req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/scenario",
			strings.NewReader(fmt.Sprintf(`{"seed":%d}`, seed)))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("If-None-Match", inm)
		resp, err := ts.Client().Do(req)
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}

	// Warm id + matching tag: 304, no body.
	r304 := conditional(61, etag)
	if r304.StatusCode != http.StatusNotModified {
		t.Fatalf("warm conditional: status %d, want 304", r304.StatusCode)
	}
	if got := readAll(t, r304); len(got) != 0 {
		t.Fatalf("304 carried a %d-byte body", len(got))
	}
	if got := r304.Header.Get("ETag"); got != etag {
		t.Fatalf("304 ETag %q, want %q", got, etag)
	}

	// Warm id + stale tag: full body again.
	rFull := conditional(61, `"deadbeef"`)
	if rFull.StatusCode != http.StatusOK {
		t.Fatalf("stale-tag conditional: status %d, want 200", rFull.StatusCode)
	}
	if !bytes.Equal(readAll(t, rFull), body) {
		t.Fatal("stale-tag conditional served different bytes")
	}

	// Cold id + matching tag: the precondition cannot exempt the server
	// from producing the record — full body, then the id is warm.
	coldAxes := `{"seed":62}`
	var coldID string
	{
		ax := sweep.Axes{Seed: 62}
		sc, err := ax.Scenario()
		if err != nil {
			t.Fatal(err)
		}
		coldID = sc.ID
	}
	req, _ := http.NewRequest(http.MethodPost, ts.URL+"/v1/scenario", strings.NewReader(coldAxes))
	req.Header.Set("If-None-Match", `"`+coldID+`"`)
	rCold, err := ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	if rCold.StatusCode != http.StatusOK {
		t.Fatalf("cold conditional: status %d, want 200 (must simulate, not vouch)", rCold.StatusCode)
	}
	readAll(t, rCold)

	var st Stats
	sresp, err := http.Get(ts.URL + "/statsz")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(sresp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	sresp.Body.Close()
	if st.Cache.NotModified != 1 {
		t.Fatalf("statsz counts %d not-modified, want 1", st.Cache.NotModified)
	}
	if st.Version == "" {
		t.Fatal("statsz must report a build version")
	}
	if st.UptimeS <= 0 {
		t.Fatal("statsz must report uptime")
	}
}

// TestScenarioEncodingNegotiation: /v1/scenario answers in the
// encoding the Accept header negotiates, with the engine's record
// bytes, cold and warm. A miss encodes only what it was asked for, and
// the bytes stay in the cache entry. Each encoding has its own strong
// ETag, so a validator never earns a 304 across encodings.
func TestScenarioEncodingNegotiation(t *testing.T) {
	res, err := sweep.Run(sweep.Grid{Seeds: []uint64{71}}, sweep.Options{Cache: sweep.NewCache()})
	if err != nil {
		t.Fatal(err)
	}
	rec := sweep.RecordOf(res.Scenarios[0])
	id := rec.Scenario
	line, err := json.Marshal(rec)
	if err != nil {
		t.Fatal(err)
	}
	want := map[sweep.Encoding][]byte{
		sweep.EncodingJSON: append(line, '\n'),
		sweep.EncodingTLV:  tlv.AppendRecord(nil, &rec),
	}
	srv, err := New(Options{SimWorkers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ts := httptest.NewServer(srv)
	defer ts.Close()

	ask := func(accept, inm string) (*http.Response, []byte) {
		t.Helper()
		req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/scenario", strings.NewReader(`{"seed":71}`))
		if err != nil {
			t.Fatal(err)
		}
		if accept != "" {
			req.Header.Set("Accept", accept)
		}
		if inm != "" {
			req.Header.Set("If-None-Match", inm)
		}
		resp, err := ts.Client().Do(req)
		if err != nil {
			t.Fatal(err)
		}
		return resp, readAll(t, resp)
	}
	cases := []struct {
		accept, contentType, etag string
		enc                       sweep.Encoding
	}{
		{tlv.MediaType, tlv.MediaType, `"` + id + `.tlv"`, sweep.EncodingTLV},
		{"", "application/json", `"` + id + `"`, sweep.EncodingJSON},
	}
	for round := 0; round < 2; round++ {
		for i, c := range cases {
			resp, body := ask(c.accept, "")
			wantCache := "hit"
			if round == 0 && i == 0 {
				wantCache = "miss"
			}
			if resp.StatusCode != http.StatusOK || resp.Header.Get("X-Sweepd-Cache") != wantCache {
				t.Fatalf("round %d Accept %q: status %d, cache %q, want 200 %s",
					round, c.accept, resp.StatusCode, resp.Header.Get("X-Sweepd-Cache"), wantCache)
			}
			if got := resp.Header.Get("Content-Type"); got != c.contentType {
				t.Fatalf("Accept %q: Content-Type %q, want %q", c.accept, got, c.contentType)
			}
			if got := resp.Header.Get("ETag"); got != c.etag {
				t.Fatalf("Accept %q: ETag %q, want %q", c.accept, got, c.etag)
			}
			if got := resp.Header.Get("Vary"); got != "Accept" {
				t.Fatalf("Accept %q: Vary %q, want Accept", c.accept, got)
			}
			if !bytes.Equal(body, want[c.enc]) {
				t.Fatalf("round %d Accept %q: %d bytes differ from the engine's record", round, c.accept, len(body))
			}
			if round == 0 && i == 0 {
				// The miss filled the TLV slot and left the JSON one empty
				// (a render returning nil keeps it so).
				var renders int
				probe := func() []byte { renders++; return nil }
				got := srv.Cache().Rendered(id, sweep.EncodingTLV, probe)
				srv.Cache().Rendered(id, sweep.EncodingJSON, probe)
				if renders != 1 || !bytes.Equal(got, want[sweep.EncodingTLV]) {
					t.Fatalf("after a TLV miss: %d probe renders, want 1 (JSON only)", renders)
				}
			}
		}
	}

	// A validator for one encoding never matches the other.
	for _, c := range []struct {
		accept, inm string
		code        int
	}{
		{tlv.MediaType, cases[1].etag, http.StatusOK},
		{"", cases[0].etag, http.StatusOK},
		{tlv.MediaType, cases[0].etag, http.StatusNotModified},
		{"", cases[1].etag, http.StatusNotModified},
	} {
		resp, body := ask(c.accept, c.inm)
		if resp.StatusCode != c.code {
			t.Fatalf("Accept %q If-None-Match %s: status %d, want %d", c.accept, c.inm, resp.StatusCode, c.code)
		}
		if c.code == http.StatusNotModified && (len(body) != 0 || resp.Header.Get("ETag") != c.inm ||
			resp.Header.Get("Vary") != "Accept") {
			t.Fatalf("304 for %s: body %d bytes, ETag %q, Vary %q", c.inm, len(body),
				resp.Header.Get("ETag"), resp.Header.Get("Vary"))
		}
	}
}

// TestRetryAfterConfigurable: the 429 Retry-After hint follows
// Options.RetryAfter on both shed paths (simulation queue and grid-job
// table), and a negative value is rejected at construction.
func TestRetryAfterConfigurable(t *testing.T) {
	if _, err := New(Options{RetryAfter: -1}); err == nil {
		t.Fatal("negative RetryAfter must be rejected")
	}
	srv, err := New(Options{QueueDepth: -1, RetryAfter: 7, MaxGridJobs: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ts := httptest.NewServer(srv)
	defer ts.Close()

	// Store-only replica with no store dir: every miss sheds.
	resp := post(t, ts.Client(), ts.URL+"/v1/scenario", `{"seed":71}`)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429", resp.StatusCode)
	}
	if got := resp.Header.Get("Retry-After"); got != "7" {
		t.Fatalf("Retry-After %q, want \"7\"", got)
	}
	resp.Body.Close()
}

// TestSegmentWireIsTLVOnly is the mixed-version wire contract: every
// manifest entry still marshals "format":"tlv", which followers from
// before the v2 upgrade echo back, and the file endpoint refuses any
// other format — absent included — with 400.
func TestSegmentWireIsTLVOnly(t *testing.T) {
	srv, err := New(Options{CacheDir: t.TempDir(), SimWorkers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ts := httptest.NewServer(srv)
	defer ts.Close()
	for _, seed := range []string{"91", "92", "93"} {
		resp := post(t, ts.Client(), ts.URL+"/v1/scenario", `{"seed":`+seed+`}`)
		resp.Body.Close()
	}

	mresp, err := http.Get(ts.URL + "/v1/segments")
	if err != nil {
		t.Fatal(err)
	}
	var man struct {
		Segments []map[string]any `json:"segments"`
	}
	if err := json.Unmarshal(readAll(t, mresp), &man); err != nil {
		t.Fatal(err)
	}
	if len(man.Segments) == 0 {
		t.Fatal("manifest lists no segments")
	}
	for _, e := range man.Segments {
		if e["format"] != "tlv" {
			t.Fatalf("manifest entry %v does not carry \"format\":\"tlv\"", e)
		}
	}

	ref := fmt.Sprintf("%s/v1/segments/file?shard=%s&seg=%v", ts.URL, man.Segments[0]["shard"], man.Segments[0]["seg"])
	for query, want := range map[string]int{
		"":                 http.StatusBadRequest,
		"&format=":         http.StatusBadRequest,
		"&format=jsonl":    http.StatusBadRequest,
		"&format=protobuf": http.StatusBadRequest,
		"&format=tlv":      http.StatusOK,
	} {
		resp, err := http.Get(ref + query)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != want {
			t.Errorf("segment fetch %q: status %d, want %d", query, resp.StatusCode, want)
		}
		if want == http.StatusOK && resp.Header.Get("Content-Type") != tlv.MediaType {
			t.Errorf("segment fetch %q: Content-Type %q", query, resp.Header.Get("Content-Type"))
		}
	}
}

// TestSegmentFeed: the writer-side replication feed — manifest with a
// working 304 cursor, raw segment bytes identical to the files on
// disk, traversal-shaped refs rejected with 400, and 404 without a
// store.
func TestSegmentFeed(t *testing.T) {
	dir := t.TempDir()
	srv, err := New(Options{CacheDir: dir, SimWorkers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ts := httptest.NewServer(srv)
	defer ts.Close()

	resp := post(t, ts.Client(), ts.URL+"/v1/scenario", `{"seed":81}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("warming request: status %d", resp.StatusCode)
	}
	resp.Body.Close()

	mresp, err := http.Get(ts.URL + "/v1/segments")
	if err != nil {
		t.Fatal(err)
	}
	var man SegmentManifest
	if err := json.NewDecoder(mresp.Body).Decode(&man); err != nil {
		t.Fatal(err)
	}
	mresp.Body.Close()
	if len(man.Segments) != 1 || man.Generation <= 0 {
		t.Fatalf("unexpected manifest: %+v", man)
	}
	si := man.Segments[0]

	// Cursor match short-circuits to 304.
	c304, err := http.Get(fmt.Sprintf("%s/v1/segments?cursor=%d", ts.URL, man.Generation))
	if err != nil {
		t.Fatal(err)
	}
	c304.Body.Close()
	if c304.StatusCode != http.StatusNotModified {
		t.Fatalf("matching cursor: status %d, want 304", c304.StatusCode)
	}

	// Segment bytes round-trip exactly.
	fresp, err := http.Get(fmt.Sprintf("%s/v1/segments/file?shard=%s&seg=%d&format=%s", ts.URL, si.Shard, si.Seg, si.Format))
	if err != nil {
		t.Fatal(err)
	}
	got := readAll(t, fresp)
	want, err := srv.Store().ReadSegment(si.Shard, si.Seg)
	if err != nil {
		t.Fatal(err)
	}
	if int64(len(got)) != si.Size || !bytes.Equal(got, want) {
		t.Fatalf("served segment differs from disk (%d vs %d bytes)", len(got), si.Size)
	}

	for _, q := range []string{"shard=..&seg=0", "shard=zz&seg=0", "shard=" + si.Shard + "&seg=-1", "shard=" + si.Shard + "&seg=x"} {
		r, err := http.Get(ts.URL + "/v1/segments/file?" + q)
		if err != nil {
			t.Fatal(err)
		}
		r.Body.Close()
		if r.StatusCode != http.StatusBadRequest {
			t.Errorf("query %q: status %d, want 400", q, r.StatusCode)
		}
	}

	// A storeless server has nothing to ship.
	mem, err := New(Options{SimWorkers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer mem.Close()
	ms := httptest.NewServer(mem)
	defer ms.Close()
	r, err := http.Get(ms.URL + "/v1/segments")
	if err != nil {
		t.Fatal(err)
	}
	r.Body.Close()
	if r.StatusCode != http.StatusNotFound {
		t.Fatalf("storeless manifest: status %d, want 404", r.StatusCode)
	}
}

// TestSegmentFileReadFailureIs500: a segment the store cannot read for
// any reason but absence answers 500, so a follower reports the failure
// as lag instead of skipping the segment as compacted away (404).
func TestSegmentFileReadFailureIs500(t *testing.T) {
	dir := t.TempDir()
	srv, err := New(Options{CacheDir: dir, SimWorkers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ts := httptest.NewServer(srv)
	defer ts.Close()

	// A directory where a segment file should be: the read fails with
	// "is a directory", the shape of EIO, EACCES or EMFILE.
	if err := os.MkdirAll(filepath.Join(dir, "segments", "ab", "seg-0007.tlv"), 0o755); err != nil {
		t.Fatal(err)
	}
	for q, want := range map[string]int{
		"shard=ab&seg=7&format=tlv": http.StatusInternalServerError,
		"shard=ab&seg=8&format=tlv": http.StatusNotFound,
	} {
		r, err := http.Get(ts.URL + "/v1/segments/file?" + q)
		if err != nil {
			t.Fatal(err)
		}
		r.Body.Close()
		if r.StatusCode != want {
			t.Errorf("query %q: status %d, want %d", q, r.StatusCode, want)
		}
	}
}

// decodeTLVBody drains a negotiated binary sweep response into records.
func decodeTLVBody(t *testing.T, body io.Reader) []sweep.Record {
	t.Helper()
	sr := tlv.NewStreamReader(body)
	var recs []sweep.Record
	for {
		rec, err := sr.NextRecord()
		if err == io.EOF {
			return recs
		}
		if err != nil {
			t.Fatalf("tlv stream broke after %d records: %v", len(recs), err)
		}
		recs = append(recs, rec)
	}
}

// TestSweepStreamTLVNegotiation: a client listing the TLV media type in
// Accept gets the batched binary stream, and its frames decode to
// exactly the records of the JSONL stream — same grid, same order, same
// values. Wildcard or absent Accept headers keep the JSONL bytes
// untouched, so negotiation never changes what old clients see.
func TestSweepStreamTLVNegotiation(t *testing.T) {
	srv, err := New(Options{SimWorkers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ts := httptest.NewServer(srv)
	defer ts.Close()

	grid := `{"seeds":[1,2],"edge_upf":[false,true]}`
	want, err := sweep.Run(sweep.Grid{Seeds: []uint64{1, 2}, EdgeUPF: []bool{false, true}},
		sweep.Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	golden, err := want.ExportJSONL()
	if err != nil {
		t.Fatal(err)
	}
	var goldenRecs []sweep.Record
	dec := json.NewDecoder(bytes.NewReader(golden))
	for dec.More() {
		var rec sweep.Record
		if err := dec.Decode(&rec); err != nil {
			t.Fatal(err)
		}
		goldenRecs = append(goldenRecs, rec)
	}

	req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/sweep", strings.NewReader(grid))
	if err != nil {
		t.Fatal(err)
	}
	// A realistic Accept list: the TLV type among others, with params.
	req.Header.Set("Accept", "application/json;q=0.5, "+tlv.MediaType+";q=0.9")
	resp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != tlv.MediaType {
		t.Fatalf("negotiated content type %q, want %q", ct, tlv.MediaType)
	}
	got := decodeTLVBody(t, resp.Body)
	if len(got) != len(goldenRecs) {
		t.Fatalf("binary stream carried %d records, want %d", len(got), len(goldenRecs))
	}
	for i := range got {
		if !reflect.DeepEqual(got[i], goldenRecs[i]) {
			t.Fatalf("record %d differs between encodings:\ntlv:  %+v\njson: %+v", i, got[i], goldenRecs[i])
		}
	}
	if resp.Trailer.Get("X-Sweepd-Cache-Misses") != "4" {
		t.Fatalf("trailer misses = %q, want 4", resp.Trailer.Get("X-Sweepd-Cache-Misses"))
	}

	// The stream stats counted it: one TLV stream, every record framed,
	// one batch (4 records stay under the 64-record flush point).
	var stats Stats
	sresp, err := http.Get(ts.URL + "/statsz")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(sresp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	sresp.Body.Close()
	if stats.Stream.TLVStreams != 1 || stats.Stream.TLVRecords != int64(len(goldenRecs)) {
		t.Fatalf("stream stats = %+v, want 1 stream / %d records", stats.Stream, len(goldenRecs))
	}
	if stats.Stream.TLVBatches != 1 {
		t.Fatalf("%d records flushed %d batches, want 1", len(goldenRecs), stats.Stream.TLVBatches)
	}

	// Non-negotiating clients — absent Accept, wildcards, unrelated
	// types — keep the byte-identical JSONL default.
	for _, accept := range []string{"", "*/*", "application/*", "application/x-ndjson"} {
		req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/sweep", strings.NewReader(grid))
		if err != nil {
			t.Fatal(err)
		}
		if accept != "" {
			req.Header.Set("Accept", accept)
		}
		resp, err := ts.Client().Do(req)
		if err != nil {
			t.Fatal(err)
		}
		if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
			t.Fatalf("Accept %q: content type %q, want JSONL", accept, ct)
		}
		if body := readAll(t, resp); !bytes.Equal(body, golden) {
			t.Fatalf("Accept %q: JSONL differs from the engine export", accept)
		}
	}
}

// nonFlusher hides the ResponseWriter's Flush method — the shape of an
// HTTP/2 middleware wrapper or a bare test recorder.
type nonFlusher struct{ w http.ResponseWriter }

func (n nonFlusher) Header() http.Header         { return n.w.Header() }
func (n nonFlusher) Write(b []byte) (int, error) { return n.w.Write(b) }
func (n nonFlusher) WriteHeader(code int)        { n.w.WriteHeader(code) }

// TestSweepStreamSurvivesNonFlusherWriter is the nil-Flusher
// regression test: a ResponseWriter that is not an http.Flusher must
// degrade to unflushed writes — full body, correct bytes — never
// dereference a nil interface, in both encodings.
func TestSweepStreamSurvivesNonFlusherWriter(t *testing.T) {
	srv, err := New(Options{SimWorkers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	want, err := sweep.Run(sweep.Grid{Seeds: []uint64{1, 2}}, sweep.Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	golden, err := want.ExportJSONL()
	if err != nil {
		t.Fatal(err)
	}

	grid := `{"seeds":[1,2]}`
	for _, accept := range []string{"", tlv.MediaType} {
		rr := httptest.NewRecorder()
		req := httptest.NewRequest(http.MethodPost, "/v1/sweep", strings.NewReader(grid))
		if accept != "" {
			req.Header.Set("Accept", accept)
		}
		srv.ServeHTTP(nonFlusher{rr}, req)
		if rr.Code != http.StatusOK {
			t.Fatalf("Accept %q: status %d: %s", accept, rr.Code, rr.Body.Bytes())
		}
		if accept == "" {
			if !bytes.Equal(rr.Body.Bytes(), golden) {
				t.Fatalf("unflushed JSONL differs from the engine export")
			}
			continue
		}
		recs := decodeTLVBody(t, bytes.NewReader(rr.Body.Bytes()))
		if len(recs) != len(want.Scenarios) {
			t.Fatalf("unflushed TLV stream carried %d records, want %d", len(recs), len(want.Scenarios))
		}
	}
}
