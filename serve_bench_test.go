package sixgedge

// Benchmarks for the serving side (internal/sweep/serve): real HTTP
// round-trips against an httptest server, so the numbers include JSON
// decode, scenario-ID resolution, cache lookup, record encode and the
// loopback transport — what a sweepd client actually pays. CI's bench
// job records them in BENCH.json; the warm number is the headline
// "queries/sec a warm replica sustains".

import (
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/sweep/serve"
	"repro/internal/sweep/tlv"
)

func newBenchServer(b *testing.B, opts serve.Options) (*serve.Server, *httptest.Server) {
	b.Helper()
	srv, err := serve.New(opts)
	if err != nil {
		b.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	b.Cleanup(func() {
		ts.Close()
		srv.Close()
	})
	return srv, ts
}

func postScenario(client *http.Client, url, body string) (int, error) {
	resp, err := client.Post(url+"/v1/scenario", "application/json", strings.NewReader(body))
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if _, err := io.Copy(io.Discard, resp.Body); err != nil {
		return 0, err
	}
	return resp.StatusCode, nil
}

// BenchmarkServeWarm measures warm-hit scenario queries: the scenario
// is simulated once up front, then every iteration is one HTTP request
// served from the cache. ns/op inverts to the warm queries/sec a
// single connection sustains.
func BenchmarkServeWarm(b *testing.B) {
	srv, ts := newBenchServer(b, serve.Options{SimWorkers: 2})
	client := ts.Client()
	if code, err := postScenario(client, ts.URL, `{"seed":1}`); err != nil || code != http.StatusOK {
		b.Fatalf("warming request: code %d err %v", code, err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		code, err := postScenario(client, ts.URL, `{"seed":1}`)
		if err != nil {
			b.Fatal(err)
		}
		if code != http.StatusOK {
			b.Fatalf("warm query returned %d", code)
		}
	}
	b.StopTimer()
	if b.Elapsed() > 0 {
		b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "queries/s")
	}
	reportEndpointQuantiles(b, srv.StatsSnapshot().Scenario)
}

// reportEndpointQuantiles surfaces the server's own endpoint latency
// distribution alongside the mean: ns/op hides tail behaviour, and the
// p99/p50 ratio is the number the paper's edge-latency story turns on.
func reportEndpointQuantiles(b *testing.B, ep serve.EndpointStats) {
	b.Helper()
	b.ReportMetric(float64(ep.LatencyUsP50), "p50_us")
	b.ReportMetric(float64(ep.LatencyUsP95), "p95_us")
	b.ReportMetric(float64(ep.LatencyUsP99), "p99_us")
}

// BenchmarkServeColdMiss measures the full miss path: admission queue,
// worker slot, one campaign simulation, write-through persist, record
// encode. Every iteration queries a seed never seen before. One
// untimed miss first builds the scenario shape's world, which a
// process does once, so the timed misses measure the steady state; the
// server's endpoint quantiles still count that miss.
func BenchmarkServeColdMiss(b *testing.B) {
	srv, ts := newBenchServer(b, serve.Options{SimWorkers: 2, CacheDir: b.TempDir()})
	client := ts.Client()
	if code, err := postScenario(client, ts.URL, `{"seed":999}`); err != nil || code != http.StatusOK {
		b.Fatalf("warm-up miss: code %d, err %v", code, err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		code, err := postScenario(client, ts.URL, fmt.Sprintf(`{"seed":%d}`, 1000+i))
		if err != nil {
			b.Fatal(err)
		}
		if code != http.StatusOK {
			b.Fatalf("cold query returned %d", code)
		}
	}
	b.StopTimer()
	reportEndpointQuantiles(b, srv.StatsSnapshot().Scenario)
}

// postSweep streams one full /v1/sweep response, discarding the body,
// with the given Accept header ("" = server default JSONL). Returns
// the Content-Type actually served and the body byte count.
func postSweep(client *http.Client, url, grid, accept string) (string, int64, error) {
	req, err := http.NewRequest(http.MethodPost, url+"/v1/sweep", strings.NewReader(grid))
	if err != nil {
		return "", 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	if accept != "" {
		req.Header.Set("Accept", accept)
	}
	resp, err := client.Do(req)
	if err != nil {
		return "", 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return "", 0, fmt.Errorf("sweep returned %d", resp.StatusCode)
	}
	n, err := io.Copy(io.Discard, resp.Body)
	return resp.Header.Get("Content-Type"), n, err
}

// benchGrid is the 16-scenario grid the sweep-stream benchmarks read.
const benchGrid = `{"seeds":[1,2,3,4],"edge_upf":[false,true],"mobile_nodes":[10,20]}`

// benchSweepStream is the shared body of the sweep-stream benchmarks:
// stream benchGrid from ts once, which warms every scenario a cold
// server has not seen, then time full-stream reads so each iteration
// measures pure encode + transport, not simulation.
func benchSweepStream(b *testing.B, ts *httptest.Server, accept, wantCT string) {
	client := ts.Client()
	ct, warm, err := postSweep(client, ts.URL, benchGrid, accept)
	if err != nil {
		b.Fatal(err)
	}
	if ct != wantCT {
		b.Fatalf("negotiated Content-Type %q, want %q", ct, wantCT)
	}
	b.SetBytes(warm)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, n, err := postSweep(client, ts.URL, benchGrid, accept); err != nil {
			b.Fatal(err)
		} else if n != warm {
			b.Fatalf("stream length changed: %d then %d bytes", warm, n)
		}
	}
	b.StopTimer()
	if b.Elapsed() > 0 {
		b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "sweeps/s")
	}
}

// BenchmarkSweepStreamTLV measures a warm 16-scenario sweep streamed
// over the negotiated binary TLV transport; its JSONL twin below is
// the baseline the encoding issue's >=3x target is judged against
// (CI's bench job records both in BENCH.json).
func BenchmarkSweepStreamTLV(b *testing.B) {
	_, ts := newBenchServer(b, serve.Options{SimWorkers: 4})
	benchSweepStream(b, ts, tlv.MediaType, tlv.MediaType)
}

// BenchmarkSweepStreamJSONL is the same warm sweep over the default
// JSONL transport, for the TLV/JSONL throughput ratio.
func BenchmarkSweepStreamJSONL(b *testing.B) {
	_, ts := newBenchServer(b, serve.Options{SimWorkers: 4})
	benchSweepStream(b, ts, "", "application/x-ndjson")
}
