package main

import (
	"bytes"
	"encoding/json"
	"os"
	"reflect"
	"regexp"
	"slices"
	"strings"
	"testing"
)

// testdata/ci-bench.out is real output of CI's bench job commands: nine
// -benchmem BenchmarkHot* lines from five packages, sub-benchmarks without
// -benchmem, ServeWarm's p50_us/queries/s metrics and TLV's MB/s. The
// ServeWarm, ProxyWarm* and SweepStream* lines come from a later run,
// taken when their allocs/op gates were tightened and the proxy pair
// gained -benchmem, and the ProxySweepTLV line from a later one still,
// taken when it joined the proxy run.
func fixture(t *testing.T) string {
	t.Helper()
	b, err := os.ReadFile("testdata/ci-bench.out")
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// setMetric rewrites one unit's value on the named benchmark's line.
func setMetric(t *testing.T, in, name, unit, value string) string {
	t.Helper()
	lines := strings.Split(in, "\n")
	for i, line := range lines {
		f := strings.Fields(line)
		if len(f) == 0 || f[0] != name+"-2" {
			continue
		}
		for j := 3; j < len(f); j += 2 {
			if f[j] == unit {
				f[j-1] = value
				lines[i] = strings.Join(f, "\t")
				return strings.Join(lines, "\n")
			}
		}
	}
	t.Fatalf("fixture has no %s %s", name, unit)
	return ""
}

// dropLine removes the named benchmark's line.
func dropLine(t *testing.T, in, name string) string {
	t.Helper()
	i := strings.Index(in, name+"-2 ")
	if i < 0 {
		t.Fatalf("fixture has no %s", name)
	}
	return in[:i] + in[i+strings.IndexByte(in[i:], '\n')+1:]
}

func runGate(in string, args ...string) (stdout, stderr string, err error) {
	var o, e bytes.Buffer
	err = run(args, strings.NewReader(in), &o, &e)
	return o.String(), e.String(), err
}

// ciGates are the bench job's gates, verbatim.
var ciGates = []string{
	"-max", "BenchmarkHot*:allocs/op<=0",
	"-max", "BenchmarkCampaignFull:allocs/op<=60",
	"-max", "BenchmarkCampaignSmall:allocs/op<=50",
	"-max", "BenchmarkServeColdMiss:allocs/op<=230",
	"-max", "BenchmarkServeWarm:allocs/op<=125",
	"-max", "BenchmarkProxyWarmRouted:allocs/op<=260",
	"-max", "BenchmarkProxySweepTLV:allocs/op<=2600",
	"-max", "BenchmarkSweepStreamTLV:allocs/op<=1000",
	"-min-ratio", "BenchmarkEncodeJSON+BenchmarkDecodeJSON/BenchmarkEncodeTLV+BenchmarkDecodeTLV:ns/op>=3",
	"-min-ratio", "BenchmarkSweepStreamJSONL/BenchmarkSweepStreamTLV:ns/op>=0",
}

func TestParseKeepsEveryPrintedMetric(t *testing.T) {
	rec, err := parse(strings.NewReader(fixture(t)))
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.Benchmarks) != 28 || rec.CPU != "Intel(R) Xeon(R) Processor" {
		t.Fatalf("got %d benchmarks on cpu %q, want 28", len(rec.Benchmarks), rec.CPU)
	}
	byName := map[string]benchmark{}
	for _, b := range rec.Benchmarks {
		byName[b.Name] = b
	}
	for _, tc := range []struct {
		name, pkg string
		iters     int64
		metrics   map[string]float64
	}{
		{"BenchmarkHotAppendRecord", "repro/internal/sweep/tlv", 10000,
			map[string]float64{"ns/op": 581.4, "MB/s": 648.42, "B/op": 0, "allocs/op": 0}},
		{"BenchmarkServeWarm", "repro", 200,
			map[string]float64{"ns/op": 59593, "p50_us": 25, "p95_us": 47, "p99_us": 49,
				"queries/s": 16781, "B/op": 8972, "allocs/op": 111}},
		// Sub-benchmark: only the common -GOMAXPROCS suffix -2 goes.
		{"BenchmarkSweep/workers-1", "repro", 1,
			map[string]float64{"ns/op": 239101270, "scenarios": 64, "variants": 4}},
		// No -benchmem and no queries/s printed: nothing is derived.
		{"BenchmarkSweepDiskWarm/full", "repro", 1, map[string]float64{"ns/op": 2059847}},
	} {
		b, ok := byName[tc.name]
		if !ok {
			t.Fatalf("%s not parsed", tc.name)
		}
		if b.Pkg != tc.pkg || b.Iterations != tc.iters || !reflect.DeepEqual(b.Metrics, tc.metrics) {
			t.Errorf("%s = %+v, want pkg %s, %d iterations, %v", tc.name, b, tc.pkg, tc.iters, tc.metrics)
		}
	}
}

// TestNamesAtOneProc parses the fixture as go test prints it at
// GOMAXPROCS=1, with no suffix: sub-benchmark names ending in -1 and -4
// must stay distinct and equal the names parsed from the -2 output.
func TestNamesAtOneProc(t *testing.T) {
	in := fixture(t)
	oneProc := regexp.MustCompile(`(?m)^(Benchmark\S+)-2(\s)`).ReplaceAllString(in, "$1$2")
	if oneProc == in || strings.Contains(oneProc, "workers-1-2") {
		t.Fatal("fixture not rewritten to GOMAXPROCS=1 output")
	}
	names := func(in string) []string {
		rec, err := parse(strings.NewReader(in))
		if err != nil {
			t.Fatal(err)
		}
		var ns []string
		for _, b := range rec.Benchmarks {
			ns = append(ns, b.Name)
		}
		return ns
	}
	got, want := names(oneProc), names(in)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("GOMAXPROCS=1 names\n%v\ndiffer from\n%v", got, want)
	}
	if !slices.Contains(got, "BenchmarkSweep/workers-1") || !slices.Contains(got, "BenchmarkSweep/workers-4") {
		t.Fatalf("sub-benchmark names lost their -1/-4: %v", got)
	}
	// A lone name ending in -1 keeps it: go test never prints -1.
	if got := names("BenchmarkSweep/workers-1 \t1\t5 ns/op\n"); got[0] != "BenchmarkSweep/workers-1" {
		t.Fatalf("lone -1 name trimmed to %q", got[0])
	}
}

func TestRecordRoundTrips(t *testing.T) {
	in := fixture(t)
	want, err := parse(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	want.Commit = "aa0ec4e"
	stdout, _, err := runGate(in, append([]string{"-commit", "aa0ec4e"}, ciGates...)...)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Count(stdout, "\n") != 1 || !strings.HasSuffix(stdout, "\n") {
		t.Fatal("the record is not one JSON line")
	}
	var got record
	if err := json.Unmarshal([]byte(stdout), &got); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(&got, want) {
		t.Fatalf("round trip changed the record:\n got %+v\nwant %+v", got, *want)
	}
}

func TestGates(t *testing.T) {
	in := fixture(t)
	for _, tc := range []struct {
		name string
		in   string
		args []string
		// want is each substring stderr must hold; a case passes only
		// when no gate fails.
		want []string
		pass bool
	}{
		{"every CI gate passes", in, ciGates, []string{
			"ok   BenchmarkHot*:allocs/op<=0: BenchmarkHotEventLoop 0, ",
			"ok   BenchmarkCampaignFull:allocs/op<=60: BenchmarkCampaignFull 36",
			"ok   BenchmarkCampaignSmall:allocs/op<=50: BenchmarkCampaignSmall 31",
			"ok   BenchmarkServeColdMiss:allocs/op<=230: BenchmarkServeColdMiss 191",
			"ok   BenchmarkServeWarm:allocs/op<=125: BenchmarkServeWarm 111",
			"ok   BenchmarkProxyWarmRouted:allocs/op<=260: BenchmarkProxyWarmRouted 234",
			"ok   BenchmarkProxySweepTLV:allocs/op<=2600: BenchmarkProxySweepTLV 2378",
			"ok   BenchmarkSweepStreamTLV:allocs/op<=1000: BenchmarkSweepStreamTLV 874",
			"ok   BenchmarkEncodeJSON+BenchmarkDecodeJSON/BenchmarkEncodeTLV+BenchmarkDecodeTLV:ns/op>=3: 10.49x (30417 / 2898.7)",
			"ok   BenchmarkSweepStreamJSONL/BenchmarkSweepStreamTLV:ns/op>=0: 1.76x (701256 / 398082)",
		}, true},
		{"hot path allocates: one offender of nine", setMetric(t, in, "BenchmarkHotObserve", "allocs/op", "1"),
			ciGates[:2], []string{"FAIL BenchmarkHot*:allocs/op<=0: BenchmarkHotObserve 1\n"}, false},
		{"full campaign over 60", setMetric(t, in, "BenchmarkCampaignFull", "allocs/op", "61"),
			ciGates[2:4], []string{"FAIL BenchmarkCampaignFull:allocs/op<=60: BenchmarkCampaignFull 61"}, false},
		{"full campaign at 60", setMetric(t, in, "BenchmarkCampaignFull", "allocs/op", "60"),
			ciGates[2:4], []string{"ok   BenchmarkCampaignFull:allocs/op<=60: BenchmarkCampaignFull 60"}, true},
		{"small campaign over 50", setMetric(t, in, "BenchmarkCampaignSmall", "allocs/op", "51"),
			ciGates[4:6], []string{"FAIL BenchmarkCampaignSmall:allocs/op<=50: BenchmarkCampaignSmall 51"}, false},
		{"cold miss over 230", setMetric(t, in, "BenchmarkServeColdMiss", "allocs/op", "231"),
			ciGates[6:8], []string{"FAIL BenchmarkServeColdMiss:allocs/op<=230: BenchmarkServeColdMiss 231"}, false},
		{"warm read over 125", setMetric(t, in, "BenchmarkServeWarm", "allocs/op", "126"),
			ciGates[8:10], []string{"FAIL BenchmarkServeWarm:allocs/op<=125: BenchmarkServeWarm 126"}, false},
		{"routed proxy read over 260", setMetric(t, in, "BenchmarkProxyWarmRouted", "allocs/op", "261"),
			ciGates[10:12], []string{"FAIL BenchmarkProxyWarmRouted:allocs/op<=260: BenchmarkProxyWarmRouted 261"}, false},
		{"proxied TLV sweep over 2,600", setMetric(t, in, "BenchmarkProxySweepTLV", "allocs/op", "2601"),
			ciGates[12:14], []string{"FAIL BenchmarkProxySweepTLV:allocs/op<=2600: BenchmarkProxySweepTLV 2601"}, false},
		{"TLV stream over 1,000", setMetric(t, in, "BenchmarkSweepStreamTLV", "allocs/op", "1001"),
			ciGates[14:16], []string{"FAIL BenchmarkSweepStreamTLV:allocs/op<=1000: BenchmarkSweepStreamTLV 1001"}, false},
		{"TLV round trip under 3x JSON", setMetric(t, in, "BenchmarkDecodeJSON", "ns/op", "1000"),
			ciGates[16:18], []string{"FAIL BenchmarkEncodeJSON+BenchmarkDecodeJSON/BenchmarkEncodeTLV+BenchmarkDecodeTLV:ns/op>=3: 2.72x (7871 / 2898.7)"}, false},
		{"stream ratio report with a slower TLV stream", setMetric(t, in, "BenchmarkSweepStreamTLV", "ns/op", "1402512"),
			ciGates[18:], []string{"ok   BenchmarkSweepStreamJSONL/BenchmarkSweepStreamTLV:ns/op>=0: 0.50x"}, true},
		{"stream ratio report without its JSONL run", dropLine(t, in, "BenchmarkSweepStreamJSONL"),
			ciGates[18:], []string{"FAIL BenchmarkSweepStreamJSONL/BenchmarkSweepStreamTLV:ns/op>=0: no benchmark matches BenchmarkSweepStreamJSONL"}, false},
		{"gate matches nothing", in, []string{"-max", "BenchmarkCampaignHuge:allocs/op<=1"},
			[]string{"FAIL BenchmarkCampaignHuge:allocs/op<=1: no benchmark matches BenchmarkCampaignHuge"}, false},
		{"matched benchmark lacks the unit", in, []string{"-max", "BenchmarkSweepDiskWarm*:allocs/op<=500"},
			[]string{"FAIL BenchmarkSweepDiskWarm*:allocs/op<=500: BenchmarkSweepDiskWarm/full reports no allocs/op"}, false},
		{"ratio term matches two runs", in + in, ciGates[16:18],
			[]string{"FAIL BenchmarkEncodeJSON+BenchmarkDecodeJSON/BenchmarkEncodeTLV+BenchmarkDecodeTLV:ns/op>=3: BenchmarkEncodeJSON matches 2 benchmarks, want one"}, false},
		{"one failing gate among passing ones", setMetric(t, in, "BenchmarkServeWarm", "allocs/op", "250"), ciGates, []string{
			"ok   BenchmarkCampaignFull:", "FAIL BenchmarkServeWarm:allocs/op<=125: BenchmarkServeWarm 250"}, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			_, stderr, err := runGate(tc.in, tc.args...)
			if (err == nil) != tc.pass {
				t.Fatalf("err = %v, want pass %v; stderr:\n%s", err, tc.pass, stderr)
			}
			if n := strings.Count(stderr, "\n"); n != len(tc.args)/2 {
				t.Errorf("%d result lines for %d gates:\n%s", n, len(tc.args)/2, stderr)
			}
			for _, w := range tc.want {
				if !strings.Contains(stderr, w) {
					t.Errorf("stderr lacks %q:\n%s", w, stderr)
				}
			}
		})
	}
}

func TestRejectsBadInput(t *testing.T) {
	in := fixture(t)
	for _, tc := range []struct {
		name, in string
		args     []string
		want     string
	}{
		{"--- FAIL line", in + "BenchmarkBroken-2 \t--- FAIL: BenchmarkBroken-2\n", nil, "benchmark run failed"},
		{"FAIL package line", strings.Replace(in, "ok  \trepro\t0.028s", "FAIL\trepro\t0.028s", 1), nil, "benchmark run failed"},
		{"empty input", "", nil, "no benchmark results"},
		{"no benchmark lines", "goos: linux\nPASS\nok  \trepro\t0.1s\n", nil, "no benchmark results"},
		{"non-numeric iterations", "BenchmarkX-2 \tmany\t1 ns/op\n", nil, "malformed benchmark line"},
		{"value without a unit", "BenchmarkX-2 \t10\t1 ns/op\t3\n", nil, "malformed benchmark line"},
		{"non-numeric value", "BenchmarkX-2 \t10\tfast ns/op\n", nil, "malformed benchmark line"},
		{"stray argument", in, []string{"-max", "BenchmarkHot*:allocs/op<=0", "extra"}, `unexpected argument "extra"`},
		{"-max without a unit", in, []string{"-max", "BenchmarkHot*<=0"}, "malformed gate"},
		{"-max with an empty unit", in, []string{"-max", "BenchmarkHot*:<=0"}, "malformed gate"},
		{"-max with the ratio operator", in, []string{"-max", "BenchmarkHot*:allocs/op>=0"}, "malformed gate"},
		{"-max with a non-numeric limit", in, []string{"-max", "BenchmarkHot*:allocs/op<=zero"}, "malformed gate"},
		{"-max without a name", in, []string{"-max", ":allocs/op<=0"}, "malformed gate"},
		{"-min-ratio without a denominator", in, []string{"-min-ratio", "BenchmarkEncodeJSON:ns/op>=3"}, "malformed gate"},
		{"-min-ratio with an empty term", in, []string{"-min-ratio", "BenchmarkEncodeJSON+/BenchmarkEncodeTLV:ns/op>=3"}, "empty benchmark name"},
		{"-min-ratio with the max operator", in, []string{"-min-ratio", "A/B:ns/op<=3"}, "malformed gate"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			stdout, stderr, err := runGate(tc.in, tc.args...)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("err = %v, want %q (stderr %q)", err, tc.want, stderr)
			}
			if stdout != "" {
				t.Fatalf("wrote a record for bad input: %q", stdout)
			}
		})
	}
}
