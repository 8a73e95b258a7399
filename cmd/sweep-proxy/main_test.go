package main

import (
	"reflect"
	"strings"
	"testing"
	"time"
)

func TestSplitURLs(t *testing.T) {
	cases := []struct {
		in   string
		want []string
	}{
		{"", nil},
		{"http://a:1", []string{"http://a:1"}},
		{"http://a:1,http://b:2", []string{"http://a:1", "http://b:2"}},
		{" http://a:1 , http://b:2 ,", []string{"http://a:1", "http://b:2"}},
	}
	for _, c := range cases {
		if got := splitURLs(c.in); !reflect.DeepEqual(got, c.want) {
			t.Errorf("splitURLs(%q) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestValidateFlagsRejectsNonsense(t *testing.T) {
	ok := 30 * time.Second
	probe := 2 * time.Second
	w := "http://w:8080"
	cases := []struct {
		name        string
		writer      string
		replicas    []string
		health      time.Duration
		cache       int
		maxGrid     int
		drain       time.Duration
		traceOut    string
		traceSample int
		slowMs      int
		wantErr     string
	}{
		{"writer-only", w, nil, probe, 0, 0, ok, "", 1, 0, ""},
		{"full", w, []string{"http://r1:1", "http://r2:2"}, probe, 1024, 4096, ok, "", 1, 0, ""},
		{"no-writer", "", nil, probe, 0, 0, ok, "", 1, 0, "-writer is required"},
		{"writer-not-url", "w:8080", nil, probe, 0, 0, ok, "", 1, 0, "-writer must be a base URL"},
		{"replica-not-url", w, []string{"r1:1"}, probe, 0, 0, ok, "", 1, 0, "-replicas entries must be base URLs"},
		{"writer-as-replica", w, []string{w + "/"}, probe, 0, 0, ok, "", 1, 0, "cannot also be a replica"},
		{"negative-health", w, nil, -time.Second, 0, 0, ok, "", 1, 0, "-health-interval must be >= 0"},
		{"cache-below-minus-one", w, nil, probe, -2, 0, ok, "", 1, 0, "-cache-entries must be >= -1"},
		{"negative-max-grid", w, nil, probe, 0, -1, ok, "", 1, 0, "-max-grid must be >= 0"},
		{"negative-drain", w, nil, probe, 0, 0, -time.Second, "", 1, 0, "-drain-timeout must be >= 0"},
		{"tracing", w, nil, probe, 0, 0, ok, "spans.jsonl", 8, 250, ""},
		{"negative-trace-sample", w, nil, probe, 0, 0, ok, "spans.jsonl", -1, 0, "-trace-sample must be >= 0"},
		{"sample-no-out", w, nil, probe, 0, 0, ok, "", 4, 0, "-trace-sample requires -trace-out"},
		{"negative-slow-ms", w, nil, probe, 0, 0, ok, "", 1, -5, "-slow-ms must be >= 0"},
	}
	for _, c := range cases {
		err := validateFlags(c.writer, c.replicas, c.health, c.cache, c.maxGrid, c.drain,
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
