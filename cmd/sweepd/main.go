// Command sweepd is the resident scenario-query service: it owns a
// sweep cache directory and serves it over HTTP as a read-through,
// simulate-on-demand API. Warm scenarios answer at store speed; misses
// simulate on a bounded worker pool behind an explicit admission queue
// and shed with 429 when the queue is full. Shutdown (SIGINT/SIGTERM)
// is graceful: in-flight requests drain, the store flushes, then the
// process exits.
//
// Usage:
//
//	sweepd -cache-dir .sweep-cache                    # serve on :8080
//	sweepd -addr :9000 -sim-workers 8 -queue-depth 128
//	sweepd -cache-dir .sweep-cache -compact           # summary-only records
//	sweepd -cache-dir .sweep-cache -queue-depth -1    # read replica: hits only, misses shed
//	sweepd -cache-dir .follow -queue-depth -1 -follow http://writer:8080
//	                                                  # following replica: segment-ships
//	                                                  # the writer's store, serves reads
//	sweepd -ops-addr :6060 -trace-out spans.jsonl -trace-sample 1 -slow-ms 250
//	                                                  # pprof/metrics listener, span
//	                                                  # export, slow-request logs
//
// Endpoints: POST /v1/scenario (axes JSON -> record, ETag = scenario
// ID), POST /v1/sweep (grid JSON -> chunked JSONL, byte-identical to
// cmd/sweep -out; Accept: application/x-sweep-tlv negotiates the
// batched binary stream), POST /v1/deltas (grid JSON -> recommendation
// deltas), GET /v1/segments + /v1/segments/file (replication feed),
// GET /healthz, GET /statsz, GET /metricsz (Prometheus text).
package main

import (
	"context"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	sixgedge "repro"
	"repro/internal/obs"
)

func main() {
	var (
		addr         = flag.String("addr", ":8080", "listen address")
		cacheDir     = flag.String("cache-dir", "", "serve (and persist to) the sweep store at this directory; empty serves a memory-only cache")
		compact      = flag.Bool("compact", false, "with -cache-dir: store summary-only records (per-cell moments, no raw samples)")
		simWorkers   = flag.Int("sim-workers", 0, "concurrent simulations across all requests (0 = GOMAXPROCS)")
		queueDepth   = flag.Int("queue-depth", 0, "admission queue beyond running simulations (0 = default 64; -1 = store-only replica, every miss sheds 429)")
		gridJobs     = flag.Int("grid-jobs", 0, "concurrent grid requests (/v1/sweep, /v1/deltas) (0 = default 16)")
		maxGrid      = flag.Int("max-grid", 0, "reject grids expanding past this many scenarios (0 = default 65536)")
		retryAfter   = flag.Int("retry-after", 0, "Retry-After seconds attached to 429 shed responses (0 = default 1)")
		follow       = flag.String("follow", "", "follow a writer sweepd at this base URL: pull its segment feed into -cache-dir (pair with -queue-depth -1 for a pure read replica)")
		followEvery  = flag.Duration("follow-interval", 2*time.Second, "with -follow: manifest poll period")
		drainTimeout = flag.Duration("drain-timeout", 30*time.Second, "graceful-shutdown budget for in-flight requests")
		opsAddr      = flag.String("ops-addr", "", "serve pprof, /metricsz and /statsz on this out-of-band listener (empty disables)")
		traceOut     = flag.String("trace-out", "", "append sampled request spans as JSONL to this file (decode with: sweep -decode-trace)")
		traceSample  = flag.Int("trace-sample", 1, "with -trace-out: head-sample 1 in N traces (1 = every trace)")
		slowMs       = flag.Int("slow-ms", 0, "log a structured warning, with trace ID, for requests slower than this many milliseconds (0 disables)")
		version      = flag.Bool("version", false, "print the build version and exit")
	)
	flag.Parse()

	if *version {
		fmt.Println("sweepd", sixgedge.Version())
		return
	}

	// Usage errors exit 2, before any store is opened or socket bound —
	// the cmd/sweep convention: a silently clamped -sim-workers or a
	// replica with nothing to serve would run while doing the wrong
	// thing.
	if err := validateFlags(*cacheDir, *compact, *simWorkers, *queueDepth, *gridJobs,
		*maxGrid, *retryAfter, *follow, *followEvery, *drainTimeout,
		*traceOut, *traceSample, *slowMs); err != nil {
		fmt.Fprintln(os.Stderr, "sweepd:", err)
		fmt.Fprintln(os.Stderr, "run with -h for usage")
		os.Exit(2)
	}

	// Tracing is per-request overhead, so the tracer exists only when an
	// operator asked for an export file or slow-request logs; a nil
	// tracer keeps every span call inert.
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
		to := obs.TracerOptions{Service: "sweepd", SampleN: *traceSample, SlowMs: *slowMs}
		if spanW != nil {
			to.Writer = spanW
		}
		tracer = obs.NewTracer(to)
	}

	srv, err := sixgedge.NewSweepServer(sixgedge.ServeOptions{
		CacheDir:         *cacheDir,
		Compact:          *compact,
		SimWorkers:       *simWorkers,
		QueueDepth:       *queueDepth,
		MaxGridJobs:      *gridJobs,
		MaxGridScenarios: *maxGrid,
		RetryAfter:       *retryAfter,
		Tracer:           tracer,
	})
	if err != nil {
		fatal(err)
	}

	var rep *sixgedge.SweepReplicator
	if *follow != "" {
		rep, err = sixgedge.NewSweepReplicator(sixgedge.ReplicatorOptions{
			Writer:   *follow,
			Store:    srv.Store(),
			Interval: *followEvery,
		})
		if err != nil {
			srv.Close()
			fatal(err)
		}
		// The pull loop's lag shows up in this process's /statsz, so
		// the proxy (or an operator) can see how far each replica
		// trails the writer.
		srv.SetReplicationStats(func() any { return rep.Stats() })
		// The same lag, as a scrapeable gauge on /metricsz.
		srv.SetReplicationLag(func() float64 { return float64(rep.Stats().SegmentsBehind) })
		rep.Start()
	}

	mode := "memory-only cache"
	if *cacheDir != "" {
		mode = fmt.Sprintf("cache-dir %s", *cacheDir)
	}
	if *follow != "" {
		mode += fmt.Sprintf(", following %s", *follow)
	}
	fmt.Fprintf(os.Stderr, "sweepd: serving on %s (%s)\n", *addr, mode)

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe(*addr) }()

	// The ops listener is out of band: pprof, /metricsz and /statsz stay
	// reachable even when the request port is saturated. A failed ops
	// bind is fatal — an operator who asked for it should not silently
	// fly blind.
	opsErrc := make(chan error, 1)
	if *opsAddr != "" {
		opsSrv := &http.Server{Addr: *opsAddr, Handler: srv.OpsHandler()}
		defer opsSrv.Close()
		go func() { opsErrc <- opsSrv.ListenAndServe() }()
		fmt.Fprintf(os.Stderr, "sweepd: ops listener on %s\n", *opsAddr)
	}

	select {
	case err := <-errc:
		if rep != nil {
			rep.Stop()
		}
		srv.Close()
		if err != nil {
			fatal(err)
		}
	case err := <-opsErrc:
		if rep != nil {
			rep.Stop()
		}
		srv.Close()
		fatal(fmt.Errorf("ops listener: %w", err))
	case <-ctx.Done():
		stop()
		fmt.Fprintln(os.Stderr, "sweepd: draining (signal received)")
		if rep != nil {
			// Stop pulling before the store closes under the replicator.
			rep.Stop()
		}
		dctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
		defer cancel()
		if err := srv.Shutdown(dctx); err != nil {
			fatal(err)
		}
		fmt.Fprintln(os.Stderr, "sweepd: drained, store flushed")
	}
}

// validateFlags rejects nonsensical combinations up front.
func validateFlags(cacheDir string, compact bool, simWorkers, queueDepth, gridJobs,
	maxGrid, retryAfter int, follow string, followEvery, drainTimeout time.Duration,
	traceOut string, traceSample, slowMs int) error {
	if simWorkers < 0 {
		return fmt.Errorf("-sim-workers must be >= 0 (0 = GOMAXPROCS), got %d", simWorkers)
	}
	if queueDepth < -1 {
		return fmt.Errorf("-queue-depth must be >= -1 (-1 = store-only replica), got %d", queueDepth)
	}
	if gridJobs < 0 {
		return fmt.Errorf("-grid-jobs must be >= 0, got %d", gridJobs)
	}
	if maxGrid < 0 {
		return fmt.Errorf("-max-grid must be >= 0, got %d", maxGrid)
	}
	if retryAfter < 0 {
		return fmt.Errorf("-retry-after must be >= 0 (0 = default 1s), got %d", retryAfter)
	}
	if drainTimeout < 0 {
		return fmt.Errorf("-drain-timeout must be >= 0, got %v", drainTimeout)
	}
	if compact && cacheDir == "" {
		return fmt.Errorf("-compact requires -cache-dir (record mode is a property of the on-disk store)")
	}
	if queueDepth == -1 && cacheDir == "" {
		return fmt.Errorf("-queue-depth -1 (store-only replica) requires -cache-dir (there is no store to serve)")
	}
	if follow != "" && cacheDir == "" {
		return fmt.Errorf("-follow requires -cache-dir (shipped segments need a store to land in)")
	}
	if follow != "" && compact {
		return fmt.Errorf("-follow and -compact conflict: a follower mirrors the writer's bytes, record mode included")
	}
	if follow != "" && followEvery <= 0 {
		return fmt.Errorf("-follow-interval must be > 0, got %v", followEvery)
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
	fmt.Fprintln(os.Stderr, "sweepd:", err)
	os.Exit(1)
}
