package serve

import (
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/campaign"
)

// TestMetricszAndStatszShareCounters: one cold + one warm scenario
// request shows up identically in both views — /statsz JSON (with the
// new latency quantiles) and /metricsz Prometheus text — because both
// read the same registry objects.
func TestMetricszAndStatszShareCounters(t *testing.T) {
	srv, err := New(Options{SimWorkers: 2, Runner: campaign.Run})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ts := httptest.NewServer(srv)
	defer ts.Close()

	for i := 0; i < 2; i++ { // cold then warm: one miss, one hit
		resp := post(t, http.DefaultClient, ts.URL+"/v1/scenario", `{"seed":371}`)
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("scenario request %d: status %d", i, resp.StatusCode)
		}
	}

	st := srv.StatsSnapshot()
	ep := st.Scenario
	if ep.Requests != 2 {
		t.Fatalf("scenario requests = %d, want 2", ep.Requests)
	}
	if ep.LatencyUsP50 <= 0 || ep.LatencyUsP95 < ep.LatencyUsP50 || ep.LatencyUsP99 < ep.LatencyUsP95 {
		t.Fatalf("latency quantiles not monotone: p50=%d p95=%d p99=%d",
			ep.LatencyUsP50, ep.LatencyUsP95, ep.LatencyUsP99)
	}

	resp, err := http.Get(ts.URL + "/metricsz")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metricsz status %d", resp.StatusCode)
	}
	text := string(body)
	for _, want := range []string{
		`sweepd_cache_hits_total 1`,
		`sweepd_cache_misses_total 1`,
		`sweepd_http_request_duration_us_count{endpoint="scenario"} 2`,
		`sweepd_http_request_duration_us_p95{endpoint="scenario"}`,
		`sweepd_stage_duration_us_count{stage="simulate"} 1`,
		`sweepd_goroutines`,
		"# TYPE sweepd_http_request_duration_us histogram",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("/metricsz missing %q", want)
		}
	}

	// The simulate-stage histogram and the statsz miss counter describe
	// the same event: exactly one simulation ran.
	if st.Cache.Misses != 1 || st.Cache.Hits != 1 {
		t.Fatalf("cache counters hits=%d misses=%d, want 1/1", st.Cache.Hits, st.Cache.Misses)
	}
}

// TestOpsHandlerSurface: the -ops-addr mux serves pprof, metrics and
// stats off the request port.
func TestOpsHandlerSurface(t *testing.T) {
	srv, err := New(Options{SimWorkers: 1, Runner: campaign.Run})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ops := httptest.NewServer(srv.OpsHandler())
	defer ops.Close()

	for _, path := range []string{"/debug/pprof/", "/metricsz", "/statsz", "/healthz"} {
		resp, err := http.Get(ops.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Errorf("ops %s: status %d", path, resp.StatusCode)
		}
	}
}
