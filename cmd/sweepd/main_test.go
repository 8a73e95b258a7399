package main

import (
	"strings"
	"testing"
	"time"
)

func TestValidateFlagsRejectsNonsense(t *testing.T) {
	ok := 30 * time.Second
	poll := 2 * time.Second
	cases := []struct {
		name        string
		cacheDir    string
		compact     bool
		simWorkers  int
		queueDepth  int
		gridJobs    int
		maxGrid     int
		retryAfter  int
		follow      string
		followEvr   time.Duration
		drain       time.Duration
		traceOut    string
		traceSample int
		slowMs      int
		wantErr     string
	}{
		{"defaults", "", false, 0, 0, 0, 0, 0, "", poll, ok, "", 1, 0, ""},
		{"full", ".c", true, 8, 128, 4, 1024, 5, "", poll, ok, "", 1, 0, ""},
		{"replica", ".c", false, 0, -1, 0, 0, 0, "", poll, ok, "", 1, 0, ""},
		{"follower", ".c", false, 0, -1, 0, 0, 0, "http://w:8080", poll, ok, "", 1, 0, ""},
		{"negative-sim-workers", "", false, -2, 0, 0, 0, 0, "", poll, ok, "", 1, 0, "-sim-workers must be >= 0"},
		{"queue-below-minus-one", "", false, 0, -2, 0, 0, 0, "", poll, ok, "", 1, 0, "-queue-depth must be >= -1"},
		{"negative-grid-jobs", "", false, 0, 0, -1, 0, 0, "", poll, ok, "", 1, 0, "-grid-jobs must be >= 0"},
		{"negative-max-grid", "", false, 0, 0, 0, -1, 0, "", poll, ok, "", 1, 0, "-max-grid must be >= 0"},
		{"negative-retry-after", "", false, 0, 0, 0, 0, -1, "", poll, ok, "", 1, 0, "-retry-after must be >= 0"},
		{"negative-drain", "", false, 0, 0, 0, 0, 0, "", poll, -time.Second, "", 1, 0, "-drain-timeout must be >= 0"},
		{"compact-no-dir", "", true, 0, 0, 0, 0, 0, "", poll, ok, "", 1, 0, "-compact requires -cache-dir"},
		{"replica-no-dir", "", false, 0, -1, 0, 0, 0, "", poll, ok, "", 1, 0, "-queue-depth -1 (store-only replica) requires -cache-dir"},
		{"follow-no-dir", "", false, 0, 0, 0, 0, 0, "http://w:8080", poll, ok, "", 1, 0, "-follow requires -cache-dir"},
		{"follow-compact", ".c", true, 0, 0, 0, 0, 0, "http://w:8080", poll, ok, "", 1, 0, "-follow and -compact conflict"},
		{"follow-bad-interval", ".c", false, 0, 0, 0, 0, 0, "http://w:8080", 0, ok, "", 1, 0, "-follow-interval must be > 0"},
		{"tracing", "", false, 0, 0, 0, 0, 0, "", poll, ok, "spans.jsonl", 8, 250, ""},
		{"negative-trace-sample", "", false, 0, 0, 0, 0, 0, "", poll, ok, "spans.jsonl", -1, 0, "-trace-sample must be >= 0"},
		{"sample-no-out", "", false, 0, 0, 0, 0, 0, "", poll, ok, "", 4, 0, "-trace-sample requires -trace-out"},
		{"negative-slow-ms", "", false, 0, 0, 0, 0, 0, "", poll, ok, "", 1, -5, "-slow-ms must be >= 0"},
	}
	for _, c := range cases {
		err := validateFlags(c.cacheDir, c.compact, c.simWorkers, c.queueDepth,
			c.gridJobs, c.maxGrid, c.retryAfter, c.follow, c.followEvr, c.drain,
			c.traceOut, c.traceSample, c.slowMs)
		if c.wantErr == "" {
			if err != nil {
				t.Errorf("%s: unexpected error %v", c.name, err)
			}
			continue
		}
		if err == nil || !strings.Contains(err.Error(), c.wantErr) {
			t.Errorf("%s: got %v, want error containing %q", c.name, err, c.wantErr)
		}
	}
}
