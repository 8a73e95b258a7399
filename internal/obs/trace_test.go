package obs

import (
	"bytes"
	"context"
	"log/slog"
	"strings"
	"testing"
	"time"
)

func TestTraceparentRoundTrip(t *testing.T) {
	sc := SpanContext{Sampled: true}
	for i := range sc.TraceID {
		sc.TraceID[i] = byte(i + 1)
	}
	for i := range sc.SpanID {
		sc.SpanID[i] = byte(0xa0 + i)
	}
	h := sc.Traceparent()
	got, ok := ParseTraceparent(h)
	if !ok {
		t.Fatalf("ParseTraceparent(%q) failed", h)
	}
	if got != sc {
		t.Fatalf("round trip: got %+v want %+v", got, sc)
	}
	if !strings.HasPrefix(h, "00-") || !strings.HasSuffix(h, "-01") || len(h) != 55 {
		t.Fatalf("malformed traceparent %q", h)
	}
}

func TestParseTraceparentRejects(t *testing.T) {
	bad := []string{
		"",
		"00-short",
		"ff-0102030405060708090a0b0c0d0e0f10-a0a1a2a3a4a5a6a7-01",  // unknown version
		"00-00000000000000000000000000000000-a0a1a2a3a4a5a6a7-01",  // zero trace id
		"00-0102030405060708090a0b0c0d0e0f10-0000000000000000-01",  // zero span id
		"00-zz02030405060708090a0b0c0d0e0f10-a0a1a2a3a4a5a6a7-01",  // bad hex
		"00-0102030405060708090a0b0c0d0e0f10-a0a1a2a3a4a5a6a7-01x", // trailing junk
	}
	for _, v := range bad {
		if _, ok := ParseTraceparent(v); ok {
			t.Errorf("ParseTraceparent(%q) accepted, want reject", v)
		}
	}
	// Unsampled flag parses as Sampled=false.
	sc, ok := ParseTraceparent("00-0102030405060708090a0b0c0d0e0f10-a0a1a2a3a4a5a6a7-00")
	if !ok || sc.Sampled {
		t.Fatalf("unsampled parse: ok=%v sampled=%v", ok, sc.Sampled)
	}
}

func TestNilTracerAndSpanAreInert(t *testing.T) {
	var tr *Tracer
	sp := tr.StartSpan("x", "")
	if sp != nil {
		t.Fatal("nil tracer must mint nil spans")
	}
	sp.ObserveStage(StageSimulate, time.Second) // must not panic
	if sp.Finish() != 0 || sp.TraceHex() != "" || sp.Traceparent() != "" {
		t.Fatal("nil span must be inert")
	}
}

func TestSpanExportAndDecode(t *testing.T) {
	var out bytes.Buffer
	tr := NewTracer(TracerOptions{Service: "sweepd", Writer: &out, SampleN: 1})
	root := tr.StartSpan("scenario", "")
	if !root.Context().Sampled {
		t.Fatal("SampleN=1 must sample every trace")
	}
	root.ObserveStage(StageStoreRead, 1500*time.Microsecond)
	root.ObserveStage(StageSimulate, 2*time.Millisecond)
	root.ObserveStage(StageSimulate, 1*time.Millisecond) // accumulates

	child := tr.StartSpan("store", root.Traceparent())
	if child.TraceHex() != root.TraceHex() {
		t.Fatalf("child trace %s != parent trace %s", child.TraceHex(), root.TraceHex())
	}
	child.Finish()
	root.Finish()
	recs, err := ReadSpans(bytes.NewReader(out.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 {
		t.Fatalf("decoded %d spans, want 2", len(recs))
	}
	// Export order is finish order: child first.
	if recs[0].Name != "store" || recs[1].Name != "scenario" {
		t.Fatalf("unexpected span order: %q, %q", recs[0].Name, recs[1].Name)
	}
	if recs[0].Trace != recs[1].Trace {
		t.Fatal("spans did not share a trace ID")
	}
	if recs[0].Parent != root.Context().SpanHex() {
		t.Fatalf("child parent = %q, want root span %q", recs[0].Parent, root.Context().SpanHex())
	}
	if got := recs[1].Stages["simulate"]; got != 3000 {
		t.Fatalf("simulate stage = %dµs, want 3000", got)
	}
	if got := recs[1].Stages["store_read"]; got != 1500 {
		t.Fatalf("store_read stage = %dµs, want 1500", got)
	}

	var table strings.Builder
	if err := WriteTraceTable(&table, recs); err != nil {
		t.Fatal(err)
	}
	txt := table.String()
	if !strings.Contains(txt, "trace "+recs[0].Trace) ||
		!strings.Contains(txt, "sweepd") ||
		!strings.Contains(txt, "simulate=3000") {
		t.Fatalf("trace table missing expected content:\n%s", txt)
	}
}

func TestHeadSamplingDeterministic(t *testing.T) {
	var out bytes.Buffer
	tr := NewTracer(TracerOptions{Service: "a", Writer: &out, SampleN: 2})
	tr2 := NewTracer(TracerOptions{Service: "b", Writer: &out, SampleN: 2})
	// Every hop must reach the same sampling verdict for the same
	// trace ID, regardless of which process roots it.
	for i := 0; i < 64; i++ {
		root := tr.StartSpan("r", "")
		child := tr2.StartSpan("c", root.Traceparent())
		if root.Context().Sampled != child.Context().Sampled {
			t.Fatal("sampling verdict diverged across hops")
		}
	}
}

func TestUnsampledSpansNotExported(t *testing.T) {
	var out bytes.Buffer
	tr := NewTracer(TracerOptions{Service: "s", Writer: &out, SampleN: 0})
	sp := tr.StartSpan("x", "")
	sp.Finish()
	if out.Len() != 0 {
		t.Fatalf("unsampled span exported: %q", out.String())
	}
	// But propagation context still exists for downstream hops.
	if sp.Traceparent() == "" {
		t.Fatal("unsampled span must still carry propagation context")
	}
}

func TestSlowRequestLog(t *testing.T) {
	var logBuf bytes.Buffer
	logger := slog.New(slog.NewTextHandler(&logBuf, nil))
	tr := NewTracer(TracerOptions{Service: "sweepd", SlowMs: 0, Logger: logger})
	tr.slowNs = 1 // any span qualifies without sleeping in the test
	sp := tr.StartSpan("scenario", "")
	time.Sleep(time.Millisecond)
	sp.Finish()
	got := logBuf.String()
	if !strings.Contains(got, "slow request") || !strings.Contains(got, sp.TraceHex()) {
		t.Fatalf("slow log missing trace id:\n%s", got)
	}
}

func TestContextSpan(t *testing.T) {
	if SpanFromContext(context.Background()) != nil {
		t.Fatal("empty context must yield nil span")
	}
	tr := NewTracer(TracerOptions{Service: "s"})
	sp := tr.StartSpan("x", "")
	ctx := ContextWithSpan(context.Background(), sp)
	if SpanFromContext(ctx) != sp {
		t.Fatal("span did not round-trip through context")
	}
	if ContextWithSpan(context.Background(), nil) != context.Background() {
		t.Fatal("nil span must not wrap the context")
	}
}
