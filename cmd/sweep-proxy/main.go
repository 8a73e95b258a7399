// Command sweep-proxy is the cluster front door over a sweepd fleet:
// one writer (simulates misses, owns the authoritative store) plus any
// number of read replicas (sweepd -follow). It routes POST /v1/scenario
// by scenario-ID hash over a consistent ring of replicas so each
// replica's cache stays hot on its own slice of the ID space, falls
// through to the writer on miss, fans POST /v1/sweep out scenario by
// scenario and merges the stream back in grid order — byte-identical
// to the same sweep against a single sweepd — health-checks replicas
// with eject/readmit, and answers conditional requests from an
// ETag-keyed response cache (scenario IDs are content hashes, so a
// warm ID needs no backend round trip at all).
//
// Usage:
//
//	sweep-proxy -writer http://w:8080                                   # proxy on :8070, no replicas
//	sweep-proxy -writer http://w:8080 -replicas http://r1:8081,http://r2:8082
//	sweep-proxy -addr :9000 -writer http://w:8080 -replicas http://r1:8081 -health-interval 5s
//
// Endpoints: POST /v1/scenario, POST /v1/sweep, POST /v1/deltas
// (forwarded to the writer), GET /healthz, GET /statsz, GET /metricsz
// (Prometheus text).
package main

import (
	"context"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	sixgedge "repro"
	"repro/internal/obs"
)

func main() {
	var (
		addr           = flag.String("addr", ":8070", "listen address")
		writer         = flag.String("writer", "", "base URL of the writer sweepd (required)")
		replicas       = flag.String("replicas", "", "comma-separated base URLs of read replicas")
		healthInterval = flag.Duration("health-interval", 2*time.Second, "replica health-probe period")
		cacheEntries   = flag.Int("cache-entries", 0, "response-cache bound in records (0 = default 4096, -1 = disabled)")
		maxGrid        = flag.Int("max-grid", 0, "reject grids expanding past this many scenarios (0 = default 65536)")
		drainTimeout   = flag.Duration("drain-timeout", 30*time.Second, "graceful-shutdown budget for in-flight requests")
		opsAddr        = flag.String("ops-addr", "", "serve pprof, /metricsz and /statsz on this out-of-band listener (empty disables)")
		traceOut       = flag.String("trace-out", "", "append sampled request spans as JSONL to this file (decode with: sweep -decode-trace)")
		traceSample    = flag.Int("trace-sample", 1, "with -trace-out: head-sample 1 in N traces (1 = every trace)")
		slowMs         = flag.Int("slow-ms", 0, "log a structured warning, with trace ID, for requests slower than this many milliseconds (0 disables)")
		version        = flag.Bool("version", false, "print the build version and exit")
	)
	flag.Parse()

	if *version {
		fmt.Println("sweep-proxy", sixgedge.Version())
		return
	}

	replicaURLs := splitURLs(*replicas)
	if err := validateFlags(*writer, replicaURLs, *healthInterval, *cacheEntries,
		*maxGrid, *drainTimeout,
		*traceOut, *traceSample, *slowMs); err != nil {
		fmt.Fprintln(os.Stderr, "sweep-proxy:", err)
		fmt.Fprintln(os.Stderr, "run with -h for usage")
		os.Exit(2)
	}

	// Tracing exists only when asked for; a nil tracer keeps span calls
	// inert. The proxy's spans carry the same trace IDs its backend hops
	// do, so one -trace-out per tier joins into one cross-tier trace.
	var tracer *obs.Tracer
	if *traceOut != "" || *slowMs > 0 {
		var spanW *os.File
		if *traceOut != "" {
			var err error
			spanW, err = os.OpenFile(*traceOut, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
			if err != nil {
				fatal(err)
			}
			defer spanW.Close()
		}
		to := obs.TracerOptions{Service: "sweep-proxy", SampleN: *traceSample, SlowMs: *slowMs}
		if spanW != nil {
			to.Writer = spanW
		}
		tracer = obs.NewTracer(to)
	}

	p, err := sixgedge.NewSweepProxy(sixgedge.ProxyOptions{
		Writer:           *writer,
		Replicas:         replicaURLs,
		HealthInterval:   *healthInterval,
		CacheEntries:     *cacheEntries,
		MaxGridScenarios: *maxGrid,
		Tracer:           tracer,
	})
	if err != nil {
		fatal(err)
	}

	fmt.Fprintf(os.Stderr, "sweep-proxy: serving on %s (writer %s, %d replicas)\n",
		*addr, *writer, len(replicaURLs))

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	errc := make(chan error, 1)
	go func() { errc <- p.ListenAndServe(*addr) }()

	// Out-of-band ops listener: pprof, /metricsz and /statsz stay
	// reachable even when the request port is saturated.
	opsErrc := make(chan error, 1)
	if *opsAddr != "" {
		opsSrv := &http.Server{Addr: *opsAddr, Handler: p.OpsHandler()}
		defer opsSrv.Close()
		go func() { opsErrc <- opsSrv.ListenAndServe() }()
		fmt.Fprintf(os.Stderr, "sweep-proxy: ops listener on %s\n", *opsAddr)
	}

	select {
	case err := <-errc:
		p.Close()
		if err != nil {
			fatal(err)
		}
	case err := <-opsErrc:
		p.Close()
		fatal(fmt.Errorf("ops listener: %w", err))
	case <-ctx.Done():
		stop()
		fmt.Fprintln(os.Stderr, "sweep-proxy: draining (signal received)")
		dctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
		defer cancel()
		if err := p.Shutdown(dctx); err != nil {
			fatal(err)
		}
		fmt.Fprintln(os.Stderr, "sweep-proxy: drained")
	}
}

// splitURLs parses a comma-separated URL list, dropping empty elements
// so a trailing comma is not a phantom replica.
func splitURLs(s string) []string {
	var out []string
	for _, u := range strings.Split(s, ",") {
		if u = strings.TrimSpace(u); u != "" {
			out = append(out, u)
		}
	}
	return out
}

// validateFlags rejects nonsensical combinations up front, exit 2,
// before any socket binds — the sweepd convention.
func validateFlags(writer string, replicas []string, healthInterval time.Duration,
	cacheEntries, maxGrid int, drainTimeout time.Duration,
	traceOut string, traceSample, slowMs int) error {
	if writer == "" {
		return fmt.Errorf("-writer is required (the proxy has no simulator of its own)")
	}
	if !strings.Contains(writer, "://") {
		return fmt.Errorf("-writer must be a base URL (http://host:port), got %q", writer)
	}
	for _, r := range replicas {
		if !strings.Contains(r, "://") {
			return fmt.Errorf("-replicas entries must be base URLs (http://host:port), got %q", r)
		}
		if strings.TrimRight(r, "/") == strings.TrimRight(writer, "/") {
			return fmt.Errorf("the writer %s cannot also be a replica", writer)
		}
	}
	if healthInterval < 0 {
		return fmt.Errorf("-health-interval must be >= 0, got %v", healthInterval)
	}
	if cacheEntries < -1 {
		return fmt.Errorf("-cache-entries must be >= -1 (-1 = disabled), got %d", cacheEntries)
	}
	if maxGrid < 0 {
		return fmt.Errorf("-max-grid must be >= 0, got %d", maxGrid)
	}
	if drainTimeout < 0 {
		return fmt.Errorf("-drain-timeout must be >= 0, got %v", drainTimeout)
	}
	if traceSample < 0 {
		return fmt.Errorf("-trace-sample must be >= 0 (1 = every trace, 0 = none), got %d", traceSample)
	}
	if traceSample != 1 && traceOut == "" {
		return fmt.Errorf("-trace-sample requires -trace-out (sampling selects which spans export)")
	}
	if slowMs < 0 {
		return fmt.Errorf("-slow-ms must be >= 0 (0 disables), got %d", slowMs)
	}
	return nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "sweep-proxy:", err)
	os.Exit(1)
}
