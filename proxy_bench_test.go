package sixgedge

// Benchmarks for the cluster tier (internal/sweep/cluster): a proxy in
// front of a writer and two warm replicas, real HTTP on both hops.
// CI's bench job records them in BENCH.json next to BenchmarkServeWarm,
// so the record answers "what does the extra hop cost, and what does
// the response cache buy back" in one file.

import (
	"context"
	"net/http"
	"net/http/httptest"
	"testing"

	"repro/internal/sweep/cluster"
	"repro/internal/sweep/serve"
	"repro/internal/sweep/tlv"
)

// newBenchCluster stands up writer + two following replicas, warms one
// scenario (and every scenario of grid, unless it is empty) through the
// writer, replicates them, and fronts the fleet with a proxy.
func newBenchCluster(b *testing.B, proxyOpts cluster.Options, grid string) *httptest.Server {
	b.Helper()
	writer, wts := newBenchServer(b, serve.Options{SimWorkers: 2, CacheDir: b.TempDir()})
	if code, err := postScenario(wts.Client(), wts.URL, `{"seed":1}`); err != nil || code != http.StatusOK {
		b.Fatalf("warming request: code %d err %v", code, err)
	}
	if grid != "" {
		if _, _, err := postSweep(wts.Client(), wts.URL, grid, ""); err != nil {
			b.Fatalf("warming sweep: %v", err)
		}
	}
	var replicaURLs []string
	for i := 0; i < 2; i++ {
		replica, rts := newBenchServer(b, serve.Options{CacheDir: b.TempDir(), QueueDepth: -1})
		rep, err := cluster.NewReplicator(cluster.ReplicatorOptions{
			Writer: wts.URL,
			Store:  replica.Store(),
		})
		if err != nil {
			b.Fatal(err)
		}
		if err := rep.SyncOnce(context.Background()); err != nil {
			b.Fatal(err)
		}
		replicaURLs = append(replicaURLs, rts.URL)
	}
	_ = writer

	proxyOpts.Writer = wts.URL
	proxyOpts.Replicas = replicaURLs
	proxyOpts.HealthInterval = -1
	p, err := cluster.NewProxy(proxyOpts)
	if err != nil {
		b.Fatal(err)
	}
	pts := httptest.NewServer(p.Handler())
	b.Cleanup(func() {
		pts.Close()
		p.Close()
	})
	return pts
}

// BenchmarkProxyWarm measures warm scenario queries through the proxy
// with its response cache on — after the first iteration every request
// is answered from the proxy's own ETag-keyed cache, no backend hop.
// Compare against BenchmarkServeWarm: the delta is the proxy's best
// case (pure routing overhead, no fan-out).
func BenchmarkProxyWarm(b *testing.B) {
	pts := newBenchCluster(b, cluster.Options{}, "")
	client := pts.Client()
	if code, err := postScenario(client, pts.URL, `{"seed":1}`); err != nil || code != http.StatusOK {
		b.Fatalf("warming request: code %d err %v", code, err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		code, err := postScenario(client, pts.URL, `{"seed":1}`)
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
}

// BenchmarkProxyWarmRouted is the same warm query with the proxy cache
// disabled, so every request takes the full two-hop path: proxy →
// ring replica → record. This is the steady-state number for IDs the
// proxy has not cached (or a cold proxy over a warm fleet).
func BenchmarkProxyWarmRouted(b *testing.B) {
	pts := newBenchCluster(b, cluster.Options{CacheEntries: -1}, "")
	client := pts.Client()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		code, err := postScenario(client, pts.URL, `{"seed":1}`)
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
}

// BenchmarkProxySweepTLV streams the warm 16-scenario benchGrid as TLV
// through the proxy, with its response cache off and its default
// client: every iteration fans the grid out to the replicas and splices
// 16 backend frames. Compare against BenchmarkSweepStreamTLV, the same
// stream straight from one sweepd: the difference is the fan-out.
func BenchmarkProxySweepTLV(b *testing.B) {
	pts := newBenchCluster(b, cluster.Options{CacheEntries: -1}, benchGrid)
	benchSweepStream(b, pts, tlv.MediaType, tlv.MediaType)
}
