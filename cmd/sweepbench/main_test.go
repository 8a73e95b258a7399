package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// opKey is an op reduced to what the servers would receive.
type opKey struct {
	At   time.Duration
	Kind opKind
	Body string
	TLV  bool
}

func opKeys(p *plan) []opKey {
	out := make([]opKey, len(p.ops))
	for i := range p.ops {
		o := &p.ops[i]
		out[i] = opKey{At: o.at, Kind: o.kind, Body: string(o.body()), TLV: o.tlv}
	}
	return out
}

func fixtureKeys(p *plan) []string {
	var out []string
	for _, g := range p.fixture {
		out = append(out, string(g.body))
	}
	return out
}

func TestPlanIsAFunctionOfTheSeed(t *testing.T) {
	for _, w := range workloads {
		a, err := buildPlan(w, 7, 1, 0, tinySizes)
		if err != nil {
			t.Fatal(err)
		}
		b, err := buildPlan(w, 7, 1, 0, tinySizes)
		if err != nil {
			t.Fatal(err)
		}
		c, err := buildPlan(w, 8, 1, 0, tinySizes)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(opKeys(a), opKeys(b)) || !reflect.DeepEqual(fixtureKeys(a), fixtureKeys(b)) {
			t.Errorf("%s: the same seed planned different inputs", w.name)
		}
		if reflect.DeepEqual(opKeys(a), opKeys(c)) && reflect.DeepEqual(fixtureKeys(a), fixtureKeys(c)) {
			t.Errorf("%s: seeds 7 and 8 planned identical inputs", w.name)
		}
	}
}

// stubOps schedules n scenario ops at a fixed rate.
func stubOps(n int, every time.Duration) []op {
	sc := &scenario{id: "stub", body: []byte(`{}`)}
	ops := make([]op, n)
	for i := range ops {
		ops[i] = op{at: time.Duration(i) * every, kind: opScenario, sc: sc}
	}
	return ops
}

func stubGenerator(url string, conns int) *generator {
	return &generator{
		client: &http.Client{Transport: newTransport(conns)},
		base:   url,
		conns:  conns,
		check:  func(*op, []byte) (int, error) { return 1, nil },
	}
}

// A server that stalls once for 200 ms under a 100 req/s schedule: the
// ops due during the stall must carry the wait in their latency, and
// the generator's lag must show it, even though each of them is served
// quickly once sent.
func TestOpenLoopChargesAStallToTheOpsItDelays(t *testing.T) {
	const stall = 200 * time.Millisecond
	var mu sync.Mutex
	var n atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		if n.Add(1) == 20 {
			time.Sleep(stall)
		}
		mu.Unlock()
		io.WriteString(w, "ok")
	}))
	defer srv.Close()

	ops := stubOps(60, 10*time.Millisecond)
	g := stubGenerator(srv.URL, 2)
	start := time.Now().Add(20 * time.Millisecond)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	samples := g.runOpen(ctx, ops, start)

	var stalled *sample
	for i := range samples {
		if !samples[i].ok {
			t.Fatalf("op %d failed: %v", i, samples[i].err)
		}
		if samples[i].done.Sub(samples[i].sent) >= stall {
			stalled = &samples[i]
		}
	}
	if stalled == nil {
		t.Fatal("no op saw the stall")
	}
	release := stalled.done
	charged := 0
	var lags []float64
	for i := range samples {
		s := &samples[i]
		lags = append(lags, ms(s.lag()))
		if s == stalled || !s.intended.After(stalled.sent) || !s.intended.Before(release) {
			continue
		}
		charged++
		// Each op due during the stall waits at least until the stall
		// ends, and its latency says so.
		if want := release.Sub(s.intended) - 5*time.Millisecond; s.latency() < want {
			t.Errorf("op due %v before the stall ended reports latency %v", release.Sub(s.intended), s.latency())
		}
	}
	if charged < 10 {
		t.Fatalf("only %d ops were due during the stall", charged)
	}
	if lag := quantile(lags, 0.99); lag < 100 {
		t.Errorf("lag p99 %.1f ms does not show the 200 ms stall", lag)
	}
}

func TestGeneratorOpensAtMostConnsConnections(t *testing.T) {
	var conns atomic.Int64
	srv := httptest.NewUnstartedServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		time.Sleep(2 * time.Millisecond)
		io.WriteString(w, "ok")
	}))
	srv.Config.ConnState = func(_ net.Conn, st http.ConnState) {
		if st == http.StateNew {
			conns.Add(1)
		}
	}
	srv.Start()
	defer srv.Close()

	// Every op is due at once: an uncapped client would open one
	// connection per op.
	g := stubGenerator(srv.URL, 2)
	samples := g.runOpen(context.Background(), stubOps(100, 0), time.Now())
	for i := range samples {
		if !samples[i].ok {
			t.Fatalf("op %d failed: %v", i, samples[i].err)
		}
	}
	if got := conns.Load(); got > 2 {
		t.Errorf("generator opened %d connections, cap is 2", got)
	}
}

// benchFileMetrics reads BENCHMARK.json's metric names and units.
func benchFileMetrics(t *testing.T) (endToEnd, perLayer map[string]string) {
	t.Helper()
	raw, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &bf); err != nil {
		t.Fatal(err)
	}
	endToEnd, perLayer = map[string]string{}, map[string]string{}
	for _, m := range bf.EndToEnd {
		endToEnd[m.Name] = m.Unit
	}
	for _, m := range bf.PerLayer {
		perLayer[m.Name] = m.Unit
	}
	return endToEnd, perLayer
}

func tinyConfig(t *testing.T, w *workload, traced bool) config {
	return config{w: w, seed: 3, seconds: 0.3, traced: traced, workdir: t.TempDir(), sz: tinySizes, log: io.Discard}
}

// Every workload runs in tiny mode, untraced and traced, passes both
// oracles, and prints exactly the metrics BENCHMARK.json names, each
// with its unit.
func TestEveryWorkloadPrintsItsMetricsAndPassesTheOracles(t *testing.T) {
	endToEnd, perLayer := benchFileMetrics(t)
	if len(workloads) == 0 || len(endToEnd) == 0 || len(perLayer) == 0 {
		t.Fatal("nothing to check")
	}
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			rep, err := run(context.Background(), tinyConfig(t, w, traced))
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.name, traced, err)
			}
			if !rep.Correct || rep.Failed != 0 || rep.Attempted < 1 {
				t.Fatalf("%s traced=%v: correct=%v attempted=%d failed=%d", w.name, traced, rep.Correct, rep.Attempted, rep.Failed)
			}
			want := endToEnd
			if traced {
				want = perLayer
			}
			got := map[string]string{}
			for name, m := range rep.Metrics {
				got[name] = m.Unit
				if !traced && !(m.Value > 0) {
					t.Errorf("%s: end-to-end metric %s is %v, want > 0", w.name, name, m.Value)
				}
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s traced=%v: printed metrics %v, BENCHMARK.json names %v", w.name, traced, got, want)
			}
		}
	}
}

// flipper flips one byte in the body of the first /v1/scenario response.
type flipper struct {
	next    http.RoundTripper
	flipped atomic.Bool
}

func (f *flipper) RoundTrip(req *http.Request) (*http.Response, error) {
	resp, err := f.next.RoundTrip(req)
	if err != nil || req.URL.Path != "/v1/scenario" || !f.flipped.CompareAndSwap(false, true) {
		return resp, err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return nil, err
	}
	body[len(body)/2] ^= 0x01
	resp.Body = io.NopCloser(bytes.NewReader(body))
	return resp, nil
}

func TestACorruptedResponseFailsTheRunAndNamesTheScenario(t *testing.T) {
	w, _ := workloadByName("warm-read")
	cfg := tinyConfig(t, w, false)
	cfg.wrap = func(rt http.RoundTripper) http.RoundTripper { return &flipper{next: rt} }
	rep, err := run(context.Background(), cfg)
	var mm *mismatchError
	if !errors.As(err, &mm) || mm.id == "" {
		t.Fatalf("run error %v, want a mismatch naming a scenario", err)
	}
	if rep.Correct {
		t.Error("report says correct after a corrupted response")
	}
	if !strings.Contains(err.Error(), "scenario "+mm.id) {
		t.Errorf("error %q does not name scenario %s", err, mm.id)
	}
}

func TestVerdict(t *testing.T) {
	parent := []float64{10, 10.1, 9.9, 10.05, 9.95}
	for _, tc := range []struct {
		name   string
		a, b   []float64
		bound  float64
		expect string
	}{
		{"every run faster", parent, []float64{5, 5.1, 4.9, 5.05, 4.95}, 0.1, "better"},
		{"within the bound", parent, []float64{10.2, 10.3, 10.1, 10.25, 10.15}, 0.1, "same"},
		{"past the bound", parent, []float64{11.5, 11.6, 11.4, 11.55, 11.45}, 0.1, "WORSE"},
		{"spread wider than the bound", []float64{5, 15, 10, 7, 13}, []float64{11, 9, 12, 8, 10}, 0.1, "unresolved"},
	} {
		if got, _, _ := verdict(tc.a, tc.b, true, tc.bound); got != tc.expect {
			t.Errorf("%s: verdict %s, want %s", tc.name, got, tc.expect)
		}
	}
}
